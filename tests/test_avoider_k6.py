"""Triangle-union machinery, the matching-quadruple solver, and the
rainbow-K6 avoider."""

import inspect
import sys

import numpy as np
import pytest

from rainbowlab.avoider_k6 import (
    BLUE,
    GREEN,
    RED,
    MatchingQuadruple,
    avoid_k6,
    find_matchings,
    triangle_union,
    verify_quadruple,
)
from rainbowlab.avoiders import perturbed_cliques
from rainbowlab.colouring import is_proper
from rainbowlab.errors import ParameterError, SearchExhausted, StructureUnsupported
from rainbowlab.graph import Graph, clique, components, path_graph, r7, t_graph
from rainbowlab.model import PerturbedInstance, sample_gnp, sample_perturbed

WHEEL5 = Graph(6, [(0, i) for i in range(1, 6)]
               + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


def quadruple_holds(g: Graph, q: MatchingQuadruple) -> bool:
    return verify_quadruple(g.triangles(), q)


def quad(m0=(), m1=(), m2=(), m3=()) -> MatchingQuadruple:
    return MatchingQuadruple(*(frozenset(m) for m in (m0, m1, m2, m3)))


@pytest.mark.parametrize("valid,broken", [
    pytest.param(quad(m0=[(0, 1)], m1=[(3, 4)]), quad(m0=[(0, 1)], m1=[(1, 3)]),
                 id="m0-vertices-are-off-limits"),
    pytest.param(quad(m1=[(0, 1)], m2=[(0, 2)]), quad(m1=[(0, 1)]),
                 id="two-matchings-hit-each-triangle-m0-misses"),
    pytest.param(quad(m1=[(0, 1)], m2=[(0, 2)]), quad(m1=[(0, 1), (1, 2)], m2=[(0, 2)]),
                 id="each-matching-is-vertex-disjoint"),
])
def test_verify_quadruple_rejects_each_broken_clause(valid, broken):
    """Each broken quadruple differs from a valid one in one clause of
    `verify_quadruple`, so only that clause can reject it."""
    assert verify_quadruple([(0, 1, 2)], valid)
    assert not verify_quadruple([(0, 1, 2)], broken)


def test_triangle_union_examples():
    assert triangle_union(clique(4)) == clique(4)
    assert triangle_union(path_graph(4)).m == 0
    assert triangle_union(r7()) == r7()
    mixed = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)])
    assert sorted(triangle_union(mixed).edges) == [(0, 1), (0, 2), (1, 2)]


def test_find_matchings_single_triangle():
    q = find_matchings(clique(3))
    assert len(q.m0) == 1
    assert not (q.m1 | q.m2 | q.m3)
    assert quadruple_holds(clique(3), q)


def test_find_matchings_diamond_uses_shared_edge():
    diamond = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    q = find_matchings(diamond)
    assert q.m0 == frozenset({(0, 1)})
    assert quadruple_holds(diamond, q)


def test_find_matchings_friendship_graph():
    g = t_graph(4)
    q = find_matchings(g)
    assert quadruple_holds(g, q)
    assert not (q.m1 | q.m2 | q.m3)  # outer edges form a hitting matching


def test_find_matchings_wheel_needs_three_matchings():
    q = find_matchings(WHEEL5)
    assert quadruple_holds(WHEEL5, q)
    assert q.m0 == frozenset()
    assert q.m1 and q.m2 and q.m3


def test_find_matchings_wheel_with_pendant_mixes_modes():
    g = Graph(8, list(WHEEL5.edges) + [(3, 6), (3, 7), (6, 7)])
    q = find_matchings(g)
    assert quadruple_holds(g, q)
    assert (6, 7) in q.m0  # the pendant triangle's outer edge
    assert q.m1 and q.m2 and q.m3


def test_find_matchings_double_wheel_is_infeasible():
    # two 5-wheels sharing the hub: at most three hub edges can sit in
    # matchings, which cannot serve ten triangles
    g = Graph(11, [(0, i) for i in range(1, 11)]
              + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
              + [(6, 7), (7, 8), (8, 9), (9, 10), (10, 6)])
    with pytest.raises(SearchExhausted):
        find_matchings(g)


def test_find_matchings_long_triangle_chain_needs_no_recursion():
    # triangles (2i, 2i+1, 2i+2): the hitting-matching search goes 1,501
    # nodes deep, past the default recursion limit
    chain = Graph(3001, sorted({e for i in range(1500) for e in (
        (2 * i, 2 * i + 1), (2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 2))}))
    q = find_matchings(chain)
    assert q.m0 == frozenset((2 * i, 2 * i + 1) for i in range(1500))
    assert not (q.m1 or q.m2 or q.m3)


def test_find_matchings_wheel_strip_needs_no_recursion():
    # WHEEL5 has no hitting matching, so its 60-triangle strip (each new
    # vertex joined to the last edge) goes to the four-label search, which
    # holds one open node per triangle: 65 of them
    edges = list(WHEEL5.edges)
    a, b = 4, 5
    for v in range(6, 66):
        edges += [(a, v), (b, v)]
        a, b = b, v
    g = Graph(66, sorted(edges))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 60)
    try:
        q = find_matchings(g)
    finally:
        sys.setrecursionlimit(limit)
    assert quadruple_holds(g, q)


def test_find_matchings_validates_input():
    with pytest.raises(ParameterError):
        find_matchings(path_graph(3))
    with pytest.raises(ParameterError):
        find_matchings(Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
    with pytest.raises(ParameterError):
        find_matchings(Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))


@pytest.mark.parametrize("n,seed_base", [(60, 500), (120, 600), (300, 700)])
def test_find_matchings_on_sampled_components(n, seed_base):
    total = 0
    for trial in range(12):
        g = sample_gnp(n, n ** -0.7, np.random.default_rng([seed_base, trial]))
        tu = triangle_union(g)
        for sub, _ in components(tu):
            if sub.m == 0:
                continue
            q = find_matchings(sub)
            assert quadruple_holds(sub, q)
            total += 1
    assert total > 0


def test_avoid_k6_rejects_k4_in_perturbation():
    left = Graph(5, list(clique(4).edges))
    inst = PerturbedInstance(n=10, p=0.0, left=left, right=Graph(5, []))
    with pytest.raises(StructureUnsupported):
        avoid_k6(inst)


def test_avoid_k6_empty_perturbation():
    inst = PerturbedInstance(n=10, p=0.0, left=Graph(5, []), right=Graph(5, []))
    psi = avoid_k6(inst)
    g = inst.graph()
    assert psi.is_total() and is_proper(g, psi)
    assert len(psi.colours_used()) == g.m  # everything fresh


def test_avoid_k6_two_triangles_share_red():
    tri = [(0, 1), (1, 2), (0, 2)]
    inst = PerturbedInstance(n=6, p=0.0, left=Graph(3, tri), right=Graph(3, tri))
    psi = avoid_k6(inst)
    g = inst.graph()
    assert is_proper(g, psi)
    left_cols = {psi.get(0, 1), psi.get(1, 2), psi.get(0, 2)}
    right_cols = {psi.get(3, 4), psi.get(4, 5), psi.get(3, 5)}
    assert RED in left_cols and RED in right_cols
    k6s = perturbed_cliques(inst, 6)
    assert k6s == [(0, 1, 2, 3, 4, 5)]
    assert not _rainbow(psi, k6s[0])


def _rainbow(psi, vs) -> bool:
    cols = [psi.get(u, v) for i, u in enumerate(vs) for v in vs[i + 1:]]
    return len(set(cols)) == len(cols)


@pytest.mark.parametrize("n", [100, 200, 300])
def test_avoid_k6_sampled_instances(n):
    p = n ** -0.7
    done = 0
    for trial in range(4):
        inst = sample_perturbed(n, p, np.random.default_rng([8000 + n, trial]))
        try:
            psi = avoid_k6(inst)
        except (StructureUnsupported, SearchExhausted):
            continue
        g = inst.graph()
        assert psi.is_total()
        assert is_proper(g, psi)
        # With both sides K4-free every K6 splits 3+3: a triangle per side.
        assert not inst.left.cliques(4) and not inst.right.cliques(4)
        assert all(not _rainbow(psi, vs) for vs in perturbed_cliques(inst, 6))
        done += 1
    assert done >= 3


def test_red_edges_form_matching_on_sample():
    inst = sample_perturbed(200, 200 ** -0.7, np.random.default_rng([321, 5]))
    try:
        psi = avoid_k6(inst)
    except (StructureUnsupported, SearchExhausted):
        pytest.skip("sample outside regime")
    g = inst.graph()
    red_vertices = []
    for u, v in g.edges:
        if psi.get(u, v) == RED:
            red_vertices += [u, v]
    assert len(red_vertices) == len(set(red_vertices))
    for colour in (BLUE, GREEN):
        vs = [x for u, v in g.edges if psi.get(u, v) == colour for x in (u, v)]
        assert len(vs) == len(set(vs))
