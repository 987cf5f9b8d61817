"""The benchmark's four workloads: inputs, the closed-loop call, and the gates.

Each workload is a ``Plan``: a fixed list of calls made from the seed, a
batch size (the fixed unit of work whose wall time is ``wall_s``), the call
itself, and the correctness checks.  The package is driven only through its
public modules, looked up at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from cagespec import abelian, caysum, cli, fullerene, spectra

WORKLOADS = ("verify-sweep", "verify-large", "census-dedup", "oracle")

# Largest eigenvector residual |A v - lambda v| the oracle gate accepts.
RESIDUAL_TOL = 1e-9

# Semiedge count -> case, as the paper's case table states it.
_CASE_BY_SEMIEDGES = {0: "a", 2: "b", 3: "c", 4: "d"}


@dataclass
class Plan:
    """One workload's inputs and how to run and check them.

    ``call`` runs one closed-loop request and returns what ``check`` needs;
    ``check`` returns an error message or None.  ``tally`` maps a result to
    the key it is counted under; ``batch_check`` receives the number of
    calls in one batch and the Counter of their tallies and returns error
    messages.  Only these counts are kept, not the results themselves.
    ``items_per_call`` converts calls into items (``item`` names them: specs
    or graphs) for ``ops_per_s``;
    ``output_counts`` maps a checked result to output counters.
    ``tail_percentile`` is the latency percentile reported as ``op_p99_us``.
    """

    name: str
    calls: list
    batch: int
    call: Callable
    check: Callable
    tail_percentile: int = 99
    item: str = "spec"
    items_per_call: int = 1
    tally: Optional[Callable] = None
    batch_check: Optional[Callable] = None
    output_counts: Optional[Callable] = None
    inputs: dict = field(default_factory=dict)

    def batch_calls(self, k: int) -> list:
        """Calls of batch k; batches walk the inputs in order and wrap."""
        n = len(self.calls)
        start = (k * self.batch) % n
        return [self.calls[(start + i) % n] for i in range(self.batch)]


def sweep_spec_count(max_index: int) -> int:
    """4 * sum_{d <= N} d * floor(N / d): Hermite forms times translations."""
    return 4 * sum(d * (max_index // d) for d in range(1, max_index + 1))


def expected_case(t) -> str:
    """Case of a spec from the parity of its four doubled symmetry points.

    Computed here from the spec integers alone, so the gate does not trust
    the package's own face census."""
    p, q, r, s, p1, p2 = t.as_tuple()
    points = ((p1, p2), (p1 + p, p2 + q), (p1 + r, p2 + s), (p1 + p + r, p2 + q + s))
    f3 = sum(1 for x, y in points if x % 2 == 0 and y % 2 == 0)
    return _CASE_BY_SEMIEDGES.get(4 - f3, "invalid")


def _spec_inputs(specs) -> dict:
    """Input properties of a spec list (no package code involved)."""
    lattices = [t.as_tuple()[:4] for t in specs]
    # Z^2/L has rank 2 exactly when the entries of L share a factor > 1
    rank2 = sum(1 for p, q, r, s in lattices if math.gcd(p, q, r, s) > 1)
    reuse = sum(1 for prev, cur in zip(lattices, lattices[1:]) if prev == cur)
    return {
        "input.specs": len(specs),
        "input.graphs": 0,
        "input.mean_order": sum(t.index for t in specs) / len(specs),
        "input.rank2_share": rank2 / len(specs),
        "input.lattice_reuse_share": reuse / len(specs),
        "input.mean_sumset_size": 3.0,
    }


def _check_case(t, report) -> Optional[str]:
    want = expected_case(t)
    if report.case != want:
        return f"spec {t.as_tuple()}: case {report.case!r}, expected {want!r}"
    return None


def _verify_call(t):
    # looked up at call time, so the traced run sees its wrapper
    return fullerene.verify_spec(t)


def verify_sweep(cfg: dict, seed: int, refs: dict) -> Plan:
    """Every spec of enumerate_specs(N) in enumeration order; the seed is
    unused because the sweep is fixed."""
    n = cfg["max_index"]
    specs = list(fullerene.enumerate_specs(n))
    reference = refs.get(str(n))

    def batch_check(count: int, cases: Counter) -> list[str]:
        errors = []
        if count != sweep_spec_count(n):
            errors.append(f"{count} specs, expected {sweep_spec_count(n)}")
        if reference is None:
            errors.append(f"no recorded case histogram for max index {n}")
        elif dict(cases) != reference:
            errors.append(f"case histogram {dict(sorted(cases.items()))} != recorded {reference}")
        return errors

    return Plan(
        name="verify-sweep",
        calls=specs,
        batch=len(specs),
        tail_percentile=cfg["tail_percentile"],
        call=_verify_call,
        check=_check_case,
        tally=lambda report: report.case,
        batch_check=batch_check,
        inputs=_spec_inputs(specs),
    )


def verify_large(cfg: dict, seed: int, refs: dict) -> Plan:
    """A seeded sample of specs, uniform over all specs whose index lies in
    [index_low, index_high], in random order."""
    rng = random.Random(f"verify-large:{seed}")
    # a spec is (n, a, b, translation) with a | n and 0 <= b < a, so an
    # (n, a) pair stands for 4a specs
    pairs = [(n, a) for n in range(cfg["index_low"], cfg["index_high"] + 1)
             for a in range(1, n + 1) if n % a == 0]
    cum = list(itertools.accumulate(a for _, a in pairs))
    specs = []
    for _ in range(cfg["sample"]):
        n, a = rng.choices(pairs, cum_weights=cum)[0]
        p1, p2 = rng.choice(((0, 0), (0, 1), (1, 0), (1, 1)))
        specs.append(fullerene.TriangleSpec(a, 0, rng.randrange(a), n // a, p1, p2))
    return Plan(
        name="verify-large",
        calls=specs,
        batch=cfg["batch"],
        tail_percentile=cfg["tail_percentile"],
        call=_verify_call,
        check=_check_case,
        inputs=_spec_inputs(specs),
    )


def census_dedup(cfg: dict, seed: int, refs: dict) -> Plan:
    """One ``census --max-index N --dedup --jobs 1`` CLI call per request,
    stdout captured; the seed is unused because the census is fixed."""
    n = cfg["max_index"]
    # --jobs 1 pinned: without it the CLI takes the worker count from the
    # environment and may fan out to a process pool
    argv = ["census", "--max-index", str(n), "--dedup", "--jobs", "1"]
    digest = refs.get(str(n))

    def call(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(args))
        return code, out.getvalue()

    def check(args, result) -> Optional[str]:
        code, text = result
        if code != 0:
            return f"census exited {code}"
        got = hashlib.sha256(text.encode()).hexdigest()
        if digest is None:
            return f"no recorded census digest for max index {n}"
        if got != digest:
            return f"census stdout sha256 {got} != recorded {digest}"
        return None

    specs = list(fullerene.enumerate_specs(n))
    return Plan(
        name="census-dedup",
        calls=[tuple(argv)],
        batch=1,
        tail_percentile=cfg["tail_percentile"],
        call=call,
        check=check,
        items_per_call=len(specs),
        output_counts=lambda result: {
            "cli.census.rows": result[1].count("\n") - 1,  # minus the CSV header
            "cli.census.bytes": len(result[1].encode()),
        },
        inputs=_spec_inputs(specs),
    )


def _oracle_call(pair):
    group, s = pair
    graph = caysum.cayley_sum_graph(group, s)
    adjacency = graph.adjacency_matrix().astype(float)
    part = spectra.character_spectrum(graph)
    jacobi = spectra.numeric_spectrum(adjacency)
    pairs = spectra.eigenvectors(graph)
    reference = np.linalg.eigvalsh(adjacency).tolist()
    return part.full(), jacobi, reference, pairs


def oracle(cfg: dict, seed: int, refs: dict) -> Plan:
    """Seeded (group, sum set) pairs as in the acceptance test: rank 1 to
    max_rank, moduli up to max_modulus, order in [order_low, order_high],
    |S| in [sumset_low, sumset_high].

    The sample is stratified: each batch holds every reachable order once
    with every size, in seeded order, so every batch and every seed has
    the same mix of problem sizes; the seed picks the moduli among those of
    that order and the elements of S.  Jacobi's cost grows fast with both,
    so an unstratified sample would make the run-to-run spread depend on
    the draw.
    """
    rng = random.Random(f"oracle:{seed}")
    by_order: dict[int, list[tuple[int, ...]]] = {}
    moduli_range = range(1, cfg["max_modulus"] + 1)
    for k in range(1, cfg["max_rank"] + 1):
        for moduli in itertools.product(moduli_range, repeat=k):
            order = math.prod(moduli)
            if cfg["order_low"] <= order <= cfg["order_high"]:
                by_order.setdefault(order, []).append(moduli)
    orders = sorted(by_order)
    sizes = range(cfg["sumset_low"], cfg["sumset_high"] + 1)
    strata = [(order, size) for order in orders for size in sizes]
    graphs = []
    for _ in range(cfg["batches"]):
        rng.shuffle(strata)
        for order, size in strata:
            group = abelian.FiniteAbelianGroup(rng.choice(by_order[order]))
            elements = tuple(rng.choice(group.element_tuple) for _ in range(size))
            graphs.append((group, caysum.SumSet(group, elements)))

    def check(pair, result) -> Optional[str]:
        character, jacobi, reference, eigenpairs = result
        label = f"moduli {pair[0].moduli} S {pair[1].elements}"
        if not spectra.multiset_close(character, jacobi, spectra.MATCH_TOL):
            return f"{label}: character spectrum differs from Jacobi"
        if not spectra.multiset_close(jacobi, reference, spectra.MATCH_TOL):
            return f"{label}: Jacobi differs from numpy eigvalsh"
        if len(eigenpairs) != pair[0].order:
            return f"{label}: {len(eigenpairs)} eigenpairs for order {pair[0].order}"
        worst = max(p.residual for p in eigenpairs)
        if worst > RESIDUAL_TOL:
            return f"{label}: eigenvector residual {worst:.3g}"
        return None

    groups = [g for g, _ in graphs]
    inputs = {
        "input.specs": 0,
        "input.graphs": len(graphs),
        "input.mean_order": sum(g.order for g in groups) / len(groups),
        "input.rank2_share": sum(1 for g in groups if g.rank == 2) / len(groups),
        "input.lattice_reuse_share": sum(
            1 for prev, cur in zip(groups, groups[1:]) if prev == cur
        ) / len(groups),
        "input.mean_sumset_size": sum(s.size for _, s in graphs) / len(graphs),
    }
    return Plan(
        name="oracle",
        item="graph",
        calls=graphs,
        batch=len(strata),
        tail_percentile=cfg["tail_percentile"],
        call=_oracle_call,
        check=check,
        inputs=inputs,
    )


BUILDERS = {
    "verify-sweep": verify_sweep,
    "verify-large": verify_large,
    "census-dedup": census_dedup,
    "oracle": oracle,
}


def build(name: str, config: dict, seed: int) -> Plan:
    return BUILDERS[name](config[name], seed, config["references"].get(name, {}))
