"""Tests for the avoider table, the one avoider trial and the one validator
of avoider output.

Each defect ``validate`` reports is planted by hand in a small perturbed
instance, and its clique enumeration is compared with a brute-force scan
of the whole perturbed graph.  The acceptance sweeps are run with a
planted avoider to show that they reach it through ``attempt``.
"""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from rainbowlab import verification
from rainbowlab.avoider_k4 import avoid_k4
from rainbowlab.avoider_k6 import avoid_k6
from rainbowlab.avoiders import AVOIDERS, attempt, perturbed_cliques, validate
from rainbowlab.colouring import EdgeColouring
from rainbowlab.errors import OutOfRegime, ParameterError, SearchExhausted, StructureUnsupported
from rainbowlab.graph import Graph, clique, disjoint_union, empty_graph
from rainbowlab.model import PerturbedInstance, sample_perturbed
from rainbowlab.tiled_k8 import RED, avoid_k8_perturbed


def fresh_colouring(g: Graph, start: int = 0) -> EdgeColouring:
    """Every edge its own colour, from `start` on: proper and rainbow."""
    psi = EdgeColouring(g)
    psi.fill_fresh(start)
    return psi


def test_avoider_table():
    assert AVOIDERS == {4: avoid_k4, 5: avoid_k4, 6: avoid_k6, 7: avoid_k6,
                        8: avoid_k8_perturbed}


@pytest.mark.parametrize("ell", [4, 5, 6, 7, 8])
def test_avoider_output_validates(ell):
    n, p = {4: (60, 60 ** -1.25), 5: (60, 60 ** -1.25), 6: (100, 100 ** -0.7),
            7: (100, 100 ** -0.7), 8: (80, 80 ** -0.45)}[ell]
    inst = sample_perturbed(n, p, np.random.default_rng([17, ell]))
    assert validate(inst, AVOIDERS[ell](inst), ell) is None


@pytest.mark.parametrize("error", [StructureUnsupported, OutOfRegime, SearchExhausted])
def test_attempt_returns_a_refusal_as_declined(monkeypatch, error):
    refusal = error("declined by design")

    def refuse(instance):
        raise refusal

    monkeypatch.setitem(AVOIDERS, 6, refuse)
    inst = PerturbedInstance(n=4, p=0.0, left=clique(2), right=clique(2))
    assert attempt(inst, 6) == (refusal, None)


def test_k4_sweep_validates_through_attempt(monkeypatch):
    monkeypatch.setitem(AVOIDERS, 4, lambda instance: EdgeColouring(instance.graph()))
    result = verification.check_avoid_k4(seed=1, budget="quick")
    assert not result.passed
    assert result.details["violations"]
    assert all(v.endswith(": colouring not total") for v in result.details["violations"])


def test_k6_sweep_counts_a_refusal_as_out_of_regime(monkeypatch):
    def exhausted(instance):
        raise SearchExhausted("planted")

    monkeypatch.setitem(AVOIDERS, 6, exhausted)
    result = verification.check_avoid_k6(seed=1, budget="quick")
    assert result.passed
    assert (result.details["validated"], result.details["out_of_regime"]) == (0, 12)


def test_k8_sweep_counts_search_exhausted_as_a_violation(monkeypatch):
    def exhausted(instance):
        raise SearchExhausted("planted")

    monkeypatch.setitem(AVOIDERS, 8, exhausted)
    result = verification.check_avoid_k8(seed=1, budget="quick")
    assert not result.passed
    assert result.details["violations"][0] == "n=80 trial=0: SearchExhausted: planted"
    assert result.details["out_of_regime"] == 0


def test_uncoloured_edge():
    inst = PerturbedInstance(n=4, p=0.0, left=clique(2), right=empty_graph(2))
    g = inst.graph()
    psi = EdgeColouring(g)
    for i, (u, v) in enumerate(g.edges[:-1]):
        psi.assign(u, v, i)
    assert validate(inst, psi, 4) == "colouring not total"


def test_improper_colouring():
    inst = PerturbedInstance(n=4, p=0.0, left=empty_graph(2), right=empty_graph(2))
    g = inst.graph()  # the 4-cycle 0-2-1-3-0
    psi = EdgeColouring(g)
    psi.assign_many(g.edges, [1, 1, 2, 3])  # (0,2) and (0,3) share colour 1
    assert validate(inst, psi, 4) == "colouring not proper"


def test_colouring_of_another_graph_is_rejected():
    inst = PerturbedInstance(n=4, p=0.0, left=clique(2), right=clique(2))
    psi = fresh_colouring(clique(3))
    with pytest.raises(ParameterError):
        validate(inst, psi, 4)


def test_all_fresh_rainbow_k4():
    inst = PerturbedInstance(n=4, p=0.0, left=clique(2), right=clique(2))
    psi = fresh_colouring(inst.graph())
    assert validate(inst, psi, 4) == "rainbow K4 at (0, 1, 2, 3)"
    assert validate(inst, psi, 5) is None  # no K5 in a 4-vertex graph


def test_all_fresh_rainbow_k6():
    inst = PerturbedInstance(n=6, p=0.0, left=clique(3), right=clique(3))
    psi = fresh_colouring(inst.graph())
    assert validate(inst, psi, 6) == "rainbow K6 at (0, 1, 2, 3, 4, 5)"


def test_all_fresh_rainbow_k7():
    right = disjoint_union((clique(3), empty_graph(1)))  # a K3 and vertex 7
    inst = PerturbedInstance(n=8, p=0.0, left=clique(4), right=right)
    psi = fresh_colouring(inst.graph())
    assert validate(inst, psi, 7) == "rainbow K7 at (0, 1, 2, 3, 4, 5, 6)"


def test_side_rainbow_k4_without_red():
    inst = PerturbedInstance(n=8, p=0.0, left=clique(4), right=empty_graph(4))
    psi = fresh_colouring(inst.graph(), start=RED + 1)
    assert validate(inst, psi, 8) == "rainbow K4 without red at (0, 1, 2, 3)"
    # The red cover is checked for ell = 8 only; the largest clique here
    # is a K5 (the left K4 plus one right vertex).
    assert validate(inst, psi, 6) is None
    assert validate(inst, psi, 4) == "rainbow K4 at (0, 1, 2, 4)"


def test_side_rainbow_k4_with_red_passes():
    inst = PerturbedInstance(n=8, p=0.0, left=clique(4), right=empty_graph(4))
    g = inst.graph()
    psi = EdgeColouring(g)
    psi.assign(0, 1, RED)
    psi.fill_fresh()
    assert validate(inst, psi, 8) is None


K4_AND_TRIANGLE = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]


def brute_force_instances():
    """Dense sides, sides of mostly isolated vertices, and a K4 with a
    triangle beside isolated vertices against an empty side, both ways."""
    for trial in range(3):
        yield sample_perturbed(12, 0.5, np.random.default_rng([5, trial]))
    for trial in range(3):
        yield sample_perturbed(20, 0.1, np.random.default_rng([6, trial]))
    yield PerturbedInstance(18, 0.0, Graph(9, K4_AND_TRIANGLE), empty_graph(9))
    yield PerturbedInstance(17, 0.0, empty_graph(8), Graph(9, K4_AND_TRIANGLE))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("index", range(8))
def test_perturbed_cliques_match_brute_force(r, index):
    inst = list(brute_force_instances())[index]
    g = inst.graph()
    expected = {
        vs for vs in combinations(range(g.n), r)
        if all(g.has_edge(u, v) for u, v in combinations(vs, 2))
    }
    found = perturbed_cliques(inst, r)
    assert len(found) == len(set(found))
    assert {tuple(sorted(vs)) for vs in found} == expected
    # left part size first, then the right part, then the left part
    off = inst.u_size

    def key(vs):
        low = tuple(v for v in vs if v < off)
        return len(low), vs[len(low):], low

    assert found == sorted(found, key=key)


def test_k4_trial_memory_does_not_grow_with_the_join():
    """One K4 trial at n = 800 near the threshold has 160,000 cross edges
    and a few dozen random ones.  The colouring keeps the cross edges in
    one int64 block and the graph never lists them, so the trial peaks
    under 20 MiB; one Python tuple per cross edge took about 40 MiB."""
    tracemalloc.start()
    try:
        inst = sample_perturbed(800, 0.3 * 800**-1.25, np.random.default_rng([1, 0]))
        outcome = attempt(inst, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome == (None, None)
    assert peak <= 20 * 2**20
