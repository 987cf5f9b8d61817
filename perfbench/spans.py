"""Span tracing for the benchmark's traced run.

The package is traced from outside: each layer is entered through a
module-level name that the pipeline looks up at call time (for example
``cagespec.fullerene.sum_set_spectrum``), so replacing that name with a
recording wrapper puts a span around every call.  Nothing here is imported
into, or installed by, the untraced run.

Spans stay in memory (flat typed arrays, a few dozen bytes each) until the
run ends; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional


@dataclass(frozen=True)
class Hook:
    """A layer entered through ``module.attr`` (attr may be ``Class.method``).

    ``counter`` maps (args, result) of one call to an amount added to the
    counter named ``counter_name``.
    """

    layer: str
    module: str
    attr: str
    counter_name: Optional[str] = None
    counter: Optional[Callable] = None


# Where each layer is looked up by its caller at the seed commit.  A target
# that a refactor removes is reported as missing; it never stops the run.
HOOKS: tuple[Hook, ...] = (
    Hook("intlinalg.snf", "cagespec.abelian", "snf",
         "intlinalg.snf.calls", lambda args, result: 1),
    Hook("abelian.quotient_group", "cagespec.fullerene", "quotient_group"),
    Hook("fullerene.group_and_sumset", "cagespec.fullerene", "group_and_sumset"),
    Hook("caysum.total_semiedge_count", "cagespec.fullerene", "total_semiedge_count"),
    Hook("spectra.sum_set_spectrum", "cagespec.fullerene", "sum_set_spectrum",
         "spectra.sum_set_spectrum.pairs", lambda args, result: len(result.paired)),
    Hook("spectra.spectrum_is_paired", "cagespec.fullerene", "spectrum_is_paired"),
    Hook("fullerene.face_census", "cagespec.fullerene", "face_census"),
    Hook("fullerene.fold_check", "cagespec.fullerene", "_fold_matches",
         "fullerene.fold_check.vertices", lambda args, result: args[0].index),
    Hook("fullerene.verify_spec", "cagespec.fullerene", "verify_spec"),
    Hook("fullerene.classify", "cagespec.cli", "classify"),
    Hook("cli.main", "cagespec.cli", "main"),
    Hook("caysum.cayley_sum_graph", "cagespec.caysum", "cayley_sum_graph"),
    Hook("caysum.adjacency_matrix", "cagespec.caysum", "CaySumGraph.adjacency_matrix"),
    Hook("spectra.character_spectrum", "cagespec.spectra", "character_spectrum"),
    Hook("spectra.numeric_spectrum", "cagespec.spectra", "numeric_spectrum"),
    Hook("spectra.eigenvectors", "cagespec.spectra", "eigenvectors"),
)

LAYERS: tuple[str, ...] = tuple(h.layer for h in HOOKS)


class Tracer:
    """Records one span per wrapped call: name, start, end and parent."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.broken_counters: set[str] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, layer: str, fn: Callable, counter_name=None, counter=None) -> Callable:
        nid = self._id(layer)
        stack = self._stack
        if counter_name:
            self.counters.setdefault(counter_name, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if counter is not None and counter_name not in self.broken_counters:
                try:
                    self.counters[counter_name] += counter(args, result)
                except (AttributeError, IndexError, TypeError):
                    # the layer's signature or result changed; report, don't fail the op
                    self.broken_counters.add(counter_name)
            return result

        return traced

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds."""
        return aggregate_self_times(self.names, self.name_id, self.start, self.end, self.parent)


def span_self_times(start, end, parent) -> list[float]:
    """Self time of each span: its duration minus the part of its interval
    that the union of its children's intervals covers."""
    children: dict[int, list[int]] = {}
    for idx, par in enumerate(parent):
        if par >= 0:
            children.setdefault(par, []).append(idx)
    result = [e - s for s, e in zip(start, end)]
    for par, kids in children.items():
        lo, hi = start[par], end[par]
        covered = 0.0
        cur_s = cur_e = None
        for k in sorted(kids, key=lambda i: start[i]):
            s, e = max(start[k], lo), min(end[k], hi)
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        result[par] -= covered
    return result


def aggregate_self_times(names, name_id, start, end, parent) -> dict[str, float]:
    totals = {name: 0.0 for name in names}
    for nid, value in zip(name_id, span_self_times(start, end, parent)):
        totals[names[nid]] += value
    return totals


def _resolve(module: str, attr: str):
    """(owner, leaf name, current value) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, leaf, None)
    if not callable(value):
        return None
    return owner, leaf, value


class installed:
    """Context manager that puts the tracer's wrappers on every hook target
    found and restores the originals on exit; ``missing`` lists the layers
    whose target does not exist."""

    def __init__(self, tracer: Tracer, hooks=HOOKS) -> None:
        self.tracer = tracer
        self.hooks = hooks
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "installed":
        for hook in self.hooks:
            found = _resolve(hook.module, hook.attr)
            if found is None:
                self.missing.append(hook.layer)
                continue
            owner, leaf, original = found
            self._saved.append((owner, leaf, original))
            wrapped = self.tracer.wrap(hook.layer, original, hook.counter_name, hook.counter)
            setattr(owner, leaf, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
