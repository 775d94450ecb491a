"""Graph construction, enumeration, densities and automorphisms.

Oracles here are deliberately independent re-implementations: densities
by direct bipartition scans, copy counts by brute-force injections,
automorphism counts by permutation filtering.
"""

import hashlib
import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowlab.emergence import janson_bound
from rainbowlab.errors import ParameterError
from rainbowlab.graph import (
    DensityReport,
    DisjointSets,
    Graph,
    aut_order,
    clique,
    complete_bipartite,
    components,
    densities,
    disjoint_union,
    empty_graph,
    enumerate_copies,
    graph_from_json,
    graph_to_json,
    hat_k,
    join,
    k_delta,
    parse_graph_spec,
    path_graph,
    r7,
    star,
    t_graph,
)
from rainbowlab.model import sample_perturbed

# -- oracles ---------------------------------------------------------------


def oracle_count_copies(g: Graph, h: Graph) -> int:
    """Distinct subgraph images of h in g by brute force over injections."""
    images = set()
    for perm in permutations(range(g.n), h.n):
        if all(g.has_edge(perm[u], perm[v]) for u, v in h.edges):
            es = frozenset(
                frozenset((perm[u], perm[v])) for u, v in h.edges
            )
            images.add((frozenset(perm), es))
    return len(images)


def oracle_m1(g: Graph, vertex_subset) -> Fraction:
    vs = list(vertex_subset)
    best = Fraction(0)
    for k in range(1, len(vs) + 1):
        for sub in combinations(vs, k):
            e = sum(1 for u, v in combinations(sub, 2) if g.has_edge(u, v))
            best = max(best, Fraction(e, k))
    return best


def oracle_m_bip2(g: Graph) -> Fraction:
    best = None
    verts = list(range(g.n))
    for size in range(g.n + 1):
        for left in combinations(verts, size):
            right = [v for v in verts if v not in left]
            val = max(oracle_m1(g, left) if left else Fraction(0),
                      oracle_m1(g, right) if right else Fraction(0))
            if best is None or val < best:
                best = val
    return best


def oracle_aut_order(g: Graph) -> int:
    count = 0
    for perm in permutations(range(g.n)):
        if all(g.has_edge(perm[u], perm[v]) == g.has_edge(u, v)
               for u, v in combinations(range(g.n), 2)):
            count += 1
    return count


def _from_nx(h) -> Graph:
    h = nx.convert_node_labels_to_integers(h)
    return Graph(h.number_of_nodes(), h.edges())


def random_graph(seed: int, n: int, density_pct: int) -> Graph:
    import random

    rng = random.Random(seed)
    edges = [e for e in combinations(range(n), 2) if rng.randrange(100) < density_pct]
    return Graph(n, edges)


# -- named constructions ---------------------------------------------------


def test_r7_shape():
    g = r7()
    assert (g.n, g.m) == (7, 10)
    assert g.triangles() == [(0, 1, 3), (0, 1, 4), (1, 2, 5), (1, 2, 6)]
    assert g.degree(1) == 6  # the middle path vertex meets everything


def test_t_graph_shape():
    g = t_graph(5)
    assert (g.n, g.m) == (11, 15)
    assert g.degree(0) == 10
    assert len(g.triangles()) == 5
    assert all(0 in t for t in g.triangles())


def test_k_delta_shape():
    g = k_delta(25, 49)
    assert (g.n, g.m) == (1251, 2475)
    small = k_delta(5, 5)
    assert small.n == 31
    assert len(small.triangles()) == 25
    # pendant j of spoke i touches exactly the centre and spoke i
    assert sorted(small.neighbours(5 + 0 * 5 + 1)) == [0, 1]


def test_basic_constructors():
    assert clique(4).m == 6
    assert complete_bipartite(3, 4).m == 12
    assert path_graph(5).m == 4
    assert star(6).degree(0) == 6
    h = hat_k(3, 4)
    assert (h.n, h.m) == (7, 15)
    assert join(clique(2), clique(2)) == clique(4)
    du = disjoint_union([clique(3), path_graph(2)])
    assert (du.n, du.m) == (5, 4)
    assert len(components(du)) == 2


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_disjoint_sets_match_components(n, seed):
    """Groups are the connected components of the union pairs, listed in
    item order; union is False exactly when the pair closes a cycle."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(2 * n))]
    sets = DisjointSets(range(n))
    seen = Graph(n, [])
    for a, b in pairs:
        joined = any(a in back and b in back for _, back in components(seen))
        assert sets.union(a, b) == (not joined)
        if a != b:
            seen = Graph(n, set(seen.edges) | {(min(a, b), max(a, b))})
    assert sorted(sets.groups().values()) == sorted(back for _, back in components(seen))
    assert all(members == sorted(members) for members in sets.groups().values())


@given(st.integers(2, 40), st.sampled_from([0.0, 0.2, 1.0]), st.integers(0, 10**6))
@example(n=7, p=0.0, seed=0)
@example(n=9, p=1.0, seed=0)
@settings(max_examples=60, deadline=None)
def test_perturbed_graph_matches_generic_constructor(n, p, seed):
    inst = sample_perturbed(n, p, np.random.default_rng([seed, 0]))
    u = inst.u_size
    seed_edges = [(a, b) for a in range(u) for b in range(u, n)]
    right = [(a + u, b + u) for a, b in inst.right.edges]
    generic = Graph(n, seed_edges + list(inst.left.edges) + right)
    g = inst.graph()
    assert (g.n, g.m, g.edges, g.adj) == (generic.n, generic.m, generic.edges, generic.adj)
    assert g == generic and hash(g) == hash(generic)
    rng = random.Random(seed)
    for e in rng.sample(generic.edges, min(20, generic.m)):
        assert g.edge_id(*e) == generic.edge_id(*e) == generic.edges.index(e)
        assert g.edge_id(e[1], e[0]) == g.edge_id(*e)
    assert join(inst.left, inst.right) == g
    assert (g.split, g.left, g.right) == (u, inst.left, inst.right)


def test_join_counts_its_edges_and_lists_them_on_first_read():
    g = join(path_graph(3), star(2))
    assert (g.n, g.m, g.split) == (6, 2 + 2 + 3 * 3, 3)
    assert g._edges is None  # counting m listed nothing
    generic = Graph(6, [(0, 1), (1, 2), (3, 4), (3, 5)]
                    + [(a, b) for a in range(3) for b in range(3, 6)])
    assert g.edges == generic.edges
    assert g.edges is g.edges
    assert (generic.split, generic.left, generic.right) == (0, None, None)


def test_constructor_validation():
    with pytest.raises(ParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(ParameterError):
        Graph(3, [(0, 5)])
    with pytest.raises(ParameterError):
        clique(0)
    with pytest.raises(ParameterError):
        t_graph(0)


def test_parse_graph_spec():
    assert parse_graph_spec("K5") == clique(5)
    assert parse_graph_spec("hatk34") == hat_k(3, 4)
    assert parse_graph_spec("Join(Clique(3), Empty(4))") == hat_k(3, 4)
    assert parse_graph_spec("T(7)") == t_graph(7)
    assert parse_graph_spec("t7") == t_graph(7)
    assert parse_graph_spec("KDelta(5,5)") == k_delta(5, 5)
    assert parse_graph_spec("DisjointUnion(K3, Path(4))").n == 7
    assert parse_graph_spec("CompleteBipartite(2,3)") == complete_bipartite(2, 3)
    with pytest.raises(ParameterError):
        parse_graph_spec("whatever(3)")


def test_parse_graph_spec_nested_past_the_recursion_limit():
    depth = 1100  # above CPython's default recursion limit of 1000
    assert parse_graph_spec("DisjointUnion(" * depth + "K2" + ")" * depth) == clique(2)


# -- enumeration -----------------------------------------------------------


def test_enumeration_fast_paths():
    g = clique(6)
    assert len(g.triangles()) == 20
    assert len(g.cliques(4)) == 15
    assert len(enumerate_copies(g, clique(3))) == 20
    assert len(enumerate_copies(g, clique(4))) == 15


@pytest.mark.parametrize("h", [
    clique(3),
    path_graph(4),
    star(3),
    Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),          # C4
    Graph(4, [(0, 1), (2, 3)]),                           # 2K2, disconnected
    disjoint_union([clique(3), path_graph(2)]),
])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_enumeration_matches_bruteforce(h, seed):
    g = random_graph(seed, 7, 55)
    assert len(enumerate_copies(g, h)) == oracle_count_copies(g, h)


def test_enumeration_on_bipartite_host():
    g = complete_bipartite(3, 3)
    assert enumerate_copies(g, clique(3)) == []
    assert len(enumerate_copies(g, Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))) == 9


# -- densities -------------------------------------------------------------


@pytest.mark.parametrize("r", range(3, 13))
def test_m2_of_cliques(r):
    d = densities(clique(r), want_bip2=False)
    assert d.m2 == Fraction(r + 1, 2)
    assert d.m1 == Fraction(r - 1, 2)


def test_density_examples():
    d = densities(hat_k(3, 4))
    assert d.m_bip2 == Fraction(4, 5)
    d = densities(r7())
    assert d.m1 == Fraction(10, 7)
    d = densities(path_graph(2))
    assert d.m2 is None
    assert d.m1 == Fraction(1, 2)


@pytest.mark.parametrize("seed", [4, 5, 6, 7])
def test_m_bip2_matches_bruteforce(seed):
    g = random_graph(seed, 7, 50)
    assert densities(g).m_bip2 == oracle_m_bip2(g)


def oracle_densities(g: Graph) -> tuple:
    """(m1, m2, m_bip2) from a Fraction per vertex subset and a direct scan
    of every bipartition."""
    m1, m2 = Fraction(0), None
    for size in range(1, g.n + 1):
        for sub in combinations(range(g.n), size):
            e = sum(1 for u, v in combinations(sub, 2) if g.has_edge(u, v))
            m1 = max(m1, Fraction(e, size))
            if e >= 2:
                cand = Fraction(e - 1, size - 2)
                m2 = cand if m2 is None else max(m2, cand)
    return m1, m2, oracle_m_bip2(g)


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.booleans(), min_size=n * (n - 1) // 2,
                         max_size=n * (n - 1) // 2))))
@settings(max_examples=60, deadline=None)
def test_densities_match_fraction_oracle(shape):
    n, keep = shape
    g = Graph(n, [e for e, k in zip(combinations(range(n), 2), keep) if k])
    d = densities(g)
    assert (d.m1, d.m2, d.m_bip2) == oracle_densities(g)
    assert densities(g, want_bip2=False) == DensityReport(d.m1, d.m2, None)


def test_density_cap():
    with pytest.raises(ParameterError):
        densities(empty_graph(21))


# -- io --------------------------------------------------------------------


def test_io_roundtrips():
    g = t_graph(4)
    assert graph_from_json(graph_to_json(g)) == g


# -- automorphisms -----------------------------------------------------------


@pytest.mark.parametrize("g,order", [
    (clique(5), 120),
    (clique(7), 5040),
    (path_graph(4), 2),
    (star(5), 120),
    (Graph(6, [(i, (i + 1) % 6) for i in range(6)]), 12),
    (complete_bipartite(3, 3), 72),
    (r7(), 8),
    (t_graph(3), 48),
    # regular graphs: every vertex has the same degree, so the search
    # rules out each wrong image by exhausting it
    (_from_nx(nx.frucht_graph()), 1),
    (_from_nx(nx.dodecahedral_graph()), 120),
    (_from_nx(nx.desargues_graph()), 240),
])
def test_aut_order_known_groups(g, order):
    assert aut_order(g) == order


@pytest.mark.parametrize("degree", [3, 4, 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_aut_order_of_random_regular_graphs(degree, seed):
    h = nx.random_regular_graph(degree, 12, seed=seed)
    expected = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    assert aut_order(_from_nx(h)) == expected


@pytest.mark.parametrize("seed", [11, 12, 13, 14, 15])
def test_aut_order_matches_bruteforce(seed):
    g = random_graph(seed, 6, 50)
    assert aut_order(g) == oracle_aut_order(g)


def test_aut_order_t10():
    assert aut_order(t_graph(10)) == 2**10 * 3628800


def test_petersen_aut_order():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    petersen = Graph(10, outer + inner + spokes)
    assert aut_order(petersen) == 120


@st.composite
def small_graphs(draw, max_n=8):
    n = draw(st.integers(0, max_n))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


def _nx(g: Graph):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@given(small_graphs())
@settings(max_examples=150, deadline=None)
def test_aut_order_matches_networkx(g):
    h = _nx(g)
    expected = sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())
    assert aut_order(g) == expected


@st.composite
def sparse_graphs(draw, max_n=64):
    """Up to 64 vertices and at most n/4 edges: most vertices isolated."""
    n = draw(st.integers(1, max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1])
    return Graph(n, draw(st.lists(pairs, max_size=n // 4)))


@st.composite
def dense_graphs(draw, max_n=12):
    """Up to 12 vertices, each pair an edge with probability p >= 0.5."""
    n = draw(st.integers(0, max_n))
    p = draw(st.floats(0.5, 1.0))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


@st.composite
def small_joins(draw):
    """Joins of two graphs on 0-5 vertices, either part possibly empty."""
    return join(draw(small_graphs(max_n=5)), draw(small_graphs(max_n=5)))


@given(st.one_of(small_graphs(max_n=10), sparse_graphs(), dense_graphs(), small_joins()))
@settings(max_examples=300, deadline=None)
def test_cliques_match_networkx(g):
    """Both entry points against networkx, for every order up to n + 1.
    `cliques` lists r = 2..4 of a graph that is not a join by its own
    loops, everything else through `iter_cliques`.  Sparse graphs are
    mostly isolated vertices, the roots the search skips; listing a join's
    cliques never builds its edge tuple."""
    orders = range(1, max(6, g.n + 1) + 1)
    listed = {r: g.cliques(r) for r in orders}
    assert g.triangles() == listed[3]
    for r in orders:
        assert list(g.iter_cliques(r)) == listed[r]
    for r in (0, -1):
        with pytest.raises(ParameterError):
            g.cliques(r)
        with pytest.raises(ParameterError):
            list(g.iter_cliques(r))
    if g.left is not None:
        assert g._edges is None
    by_size: dict = {}
    for c in nx.enumerate_all_cliques(_nx(g)):
        by_size.setdefault(len(c), []).append(tuple(sorted(c)))
    for r in orders:  # cliques come in lexicographic order
        assert listed[r] == sorted(by_size.get(r, []))
    assert listed[g.n + 1] == []


@given(st.one_of(small_graphs(max_n=10), sparse_graphs()))
@settings(max_examples=300, deadline=None)
def test_components_match_networkx(g):
    ours = components(g)  # in order of least vertex, back-maps sorted
    assert [back for _, back in ours] == sorted(
        sorted(c) for c in nx.connected_components(_nx(g)))
    for sub, back in ours:
        assert sub.n == len(back)
        assert sorted(tuple(sorted((back[u], back[v]))) for u, v in sub.edges) == [
            (u, v) for u, v in g.edges if u in back]


# -- pinned outputs of the embedding search ----------------------------------


def copy_cases():
    """400 seeded (g, h) pairs: g on 1-8 vertices, h on 1-5, where h is
    either a random graph or a disjoint union of two random parts, so
    disconnected patterns and patterns with isolated vertices are common."""
    rng = random.Random(20261020)

    def draw(n, p):
        return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])

    for _ in range(400):
        g = draw(rng.randint(1, 8), rng.choice((0.4, 0.6, 0.8, 1.0)))
        if rng.random() < 0.5:
            h = draw(rng.randint(1, 5), rng.choice((0.3, 0.6, 1.0)))
        else:
            k = rng.randint(1, 4)
            h = disjoint_union([draw(k, 1.0), draw(rng.randint(1, 5 - k), 0.7)])
        yield g, h


def test_copies_aut_orders_and_janson_estimates():
    """A sha256 over three outputs of the embedding search: the copies
    `enumerate_copies` returns (with the representative embedding of each),
    `aut_order` of every graph in the networkx atlas, and `janson_bound`,
    which divides by `aut_order`, on eight patterns at two (n, p) each."""
    cases = list(copy_cases())
    assert sum(len(components(h)) > 1 for _, h in cases) >= 200
    assert sum(any(h.degree(v) == 0 for v in range(h.n)) for _, h in cases) >= 200
    h = hashlib.sha256()
    for g, pattern in cases:
        h.update(json.dumps([g.n, g.edges, pattern.n, pattern.edges,
                             enumerate_copies(g, pattern)]).encode())
    h.update(json.dumps([aut_order(_from_nx(a)) for a in nx.graph_atlas_g()]).encode())
    patterns = [clique(2), clique(3), _from_nx(nx.cycle_graph(5)), r7(), hat_k(3, 4),
                t_graph(5), _from_nx(nx.petersen_graph()), _from_nx(nx.frucht_graph())]
    for pattern in patterns:
        for n, p in ((40, "1/8"), (300, "3/1000")):
            h.update(json.dumps(janson_bound(pattern, n, p).to_json_dict()).encode())
    assert h.hexdigest() == (
        "417ec8457b6a9abc742c93d6a04052768e6e71b2a70fd3ad242e26538d293934")
