"""Tests for the emergence toolkit: nonexistence bounds, density margins,
structure audits of K4-tiled decompositions, and the threshold scanner.

Every numeric claim is checked against an independent oracle defined at the
top of this file: labelled-copy enumeration for the overlap sum, a clique
closed form, exhaustive / vectorized / symmetry-quotiented subset scans for
density minima, and scipy's Wilson interval.  The oracles only use the
pattern's edge list, never the code under test.
"""

from __future__ import annotations

import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.stats
from scipy.stats import binomtest

from rainbowlab.avoiders import AVOIDERS
from rainbowlab.colouring import EdgeColouring
from rainbowlab.emergence import (
    CSV_HEADER,
    MARGIN_LINEAR,
    MARGIN_UNIT,
    ScanConfig,
    StructureAudit,
    density_condition,
    janson_bound,
    parse_probability,
    scan_rows_to_csv,
    threshold_scan,
    verify_structure,
    wilson_interval,
)
from rainbowlab.emergence import _DinicFlow, _density_exhaustive, _density_mincut
from rainbowlab.errors import ParameterError, StructureUnsupported
from rainbowlab.graph import (
    Graph,
    bits,
    clique,
    complete_bipartite,
    disjoint_union,
    empty_graph,
    hat_k,
    k_delta,
    path_graph,
    r7,
    star,
    t_graph,
)
from rainbowlab.model import _sparse_gnp_edges, sample_gnp


# -- independent oracles --------------------------------------------------------


def oracle_copies_and_overlap(h: Graph, n: int, p) -> tuple[int, Fraction]:
    """Brute-force copy count and ordered-pair overlap sum.

    Enumerates every labelled copy of ``h`` in the complete n-vertex graph
    (deduplicated by edge set), then sums p^(e(A) + e(B) - e(A&B)) over
    ordered pairs of distinct copies sharing at least one edge.
    """
    pf = Fraction(p)
    seen = set()
    for img in permutations(range(n), h.n):
        seen.add(frozenset(frozenset((img[u], img[v])) for u, v in h.edges))
    copies = [set(c) for c in seen]
    e = h.m
    overlap = Fraction(0)
    for a, b in permutations(copies, 2):
        shared = len(a & b)
        if shared:
            overlap += pf ** (2 * e - shared)
    return len(copies), overlap


def oracle_clique_overlap(r: int, n: int, p) -> Fraction:
    """Closed-form ordered-pair overlap sum for complete patterns.

    Two distinct r-cliques are determined by their vertex sets, and the
    edges they share form a clique on the k common vertices.
    """
    pf = Fraction(p)
    e = math.comb(r, 2)
    total = Fraction(0)
    for k in range(2, r):
        ordered_pairs = math.comb(n, r) * math.comb(r, k) * math.comb(n - r, r - k)
        total += ordered_pairs * pf ** (2 * e - math.comb(k, 2))
    return total


def oracle_margin_subsets(h: Graph, exponent) -> Fraction:
    """Exact min of v(J) - x*e(J) over induced J with an edge (direct loop)."""
    x = Fraction(exponent)
    best = None
    for mask in range(1, 1 << h.n):
        vs = list(bits(mask))
        edges = sum(
            1 for i, u in enumerate(vs) for v in vs[i + 1 :] if h.has_edge(u, v)
        )
        if edges == 0:
            continue
        value = len(vs) - x * edges
        if best is None or value < best:
            best = value
    return best


def oracle_margin_vectorized(h: Graph, num: int, den: int) -> Fraction:
    """Same minimum, computed as min(den*v - num*e)/den over all 2^n masks
    with numpy; practical up to ~22 vertices."""
    masks = np.arange(1, 1 << h.n, dtype=np.uint32)
    vcount = np.zeros(masks.shape, dtype=np.int64)
    for v in range(h.n):
        vcount += (masks >> v) & 1
    ecount = np.zeros(masks.shape, dtype=np.int64)
    for u, v in h.edges:
        bit = np.uint32((1 << u) | (1 << v))
        ecount += (masks & bit) == bit
    score = den * vcount - num * ecount
    return Fraction(int(score[ecount >= 1].min()), den)


def oracle_margin_k_delta_5_5() -> Fraction:
    """Symmetry-quotiented minimum for the 31-vertex triangle-book k_delta(5,5)
    at exponent 7/15.

    An induced subgraph is determined up to automorphism by whether the hub
    is kept and, per spoke, whether the spoke is kept and how many of its
    five triangle apexes are kept.  Apexes touch only the hub and their own
    spoke, so the induced edge count follows directly.
    """
    best = None
    spoke_states = [(s, a) for s in (0, 1) for a in range(6)]
    for hub in (0, 1):
        for combo in combinations_with_replacement(spoke_states, 5):
            v = hub + sum(s + a for s, a in combo)
            e = sum(hub * s + hub * a + s * a for s, a in combo)
            if e == 0:
                continue
            score = 15 * v - 7 * e
            if best is None or score < best:
                best = score
    return Fraction(best, 15)


def induced_margin_value(h: Graph, vertices, exponent) -> Fraction:
    """f(J) = v(J) - x*e(J) for the induced subgraph on ``vertices``."""
    vs = sorted(vertices)
    edges = sum(1 for u, v in combinations(vs, 2) if h.has_edge(u, v))
    return len(vs) - Fraction(exponent) * edges


def union_of_cliques(n: int, vertex_sets) -> Graph:
    edges = set()
    for vs in vertex_sets:
        edges.update((min(u, v), max(u, v)) for u, v in combinations(vs, 2))
    return Graph(n, sorted(edges))


def density_mincut_fresh(h: Graph, a: int, b: int):
    """The min-cut density solver as it was before its forced runs started
    from the unrestricted flow: a fresh network and a max flow from zero for
    every run.  Kept verbatim as the oracle for the warm-started solver."""
    a_total = a * h.m
    inf = a_total + b * h.n + 1

    def vertex_node(w: int) -> int:
        return 2 + h.m + w

    def run(forced):
        net = _DinicFlow(2 + h.m + h.n)
        for i, (u, v) in enumerate(h.edges):
            net.add_arc(0, 2 + i, a)
            net.add_arc(2 + i, vertex_node(u), inf)
            net.add_arc(2 + i, vertex_node(v), inf)
        for w in range(h.n):
            net.add_arc(vertex_node(w), 1, b)
        for w in forced:
            net.add_arc(0, vertex_node(w), inf)
        cut = net.max_flow(0, 1)
        side = net.source_side(0)
        chosen = tuple(w for w in range(h.n) if vertex_node(w) in side)
        return a_total - cut, chosen

    value, chosen = run(())
    if value > 0:
        return -value, chosen
    best = None
    best_set: tuple[int, ...] = ()
    for u, v in h.edges:
        val, sel = run((u, v))
        if best is None or val > best:
            best, best_set = val, sel
    return -best, best_set


# -- nonexistence bounds --------------------------------------------------------


class TestJansonBound:
    @pytest.mark.parametrize(
        "h,n",
        [
            (clique(2), 6),
            (clique(3), 7),
            (path_graph(3), 6),
            (clique(4), 7),
            (star(3), 6),
        ],
        ids=["edge", "triangle", "two-path", "k4", "three-star"],
    )
    def test_matches_brute_force_oracle(self, h, n):
        p = Fraction(1, 4)
        count, overlap = oracle_copies_and_overlap(h, n, p)
        est = janson_bound(h, n, p)
        lam = count * p**h.m
        assert est.expected_copies == pytest.approx(float(lam), rel=1e-12)
        assert est.delta_upper == pytest.approx(float(overlap), rel=1e-12, abs=1e-300)
        expected_bound = math.exp(-float(lam**2 / (lam + 2 * overlap)))
        assert est.nonexistence_bound == pytest.approx(expected_bound, rel=1e-12)

    @pytest.mark.parametrize("n,p", [(5, 0.3), (40, 0.01), (100, 0.001)])
    def test_single_edge_closed_form(self, n, p):
        est = janson_bound(clique(2), n, p)
        assert est.delta_upper == 0.0
        target = math.exp(-math.comb(n, 2) * p)
        assert abs(est.nonexistence_bound - target) <= 1e-12 * target

    def test_clique_closed_form_agrees_with_brute_force(self):
        for r, n in [(3, 7), (4, 8)]:
            _, brute = oracle_copies_and_overlap(clique(r), n, Fraction(1, 3))
            assert oracle_clique_overlap(r, n, Fraction(1, 3)) == brute

    @pytest.mark.parametrize("r,n", [(9, 11), (10, 12), (12, 14)])
    def test_large_clique_path_upper_bounds_exact_overlap(self, r, n):
        p = Fraction(1, 5)
        exact = oracle_clique_overlap(r, n, p)
        copies = math.comb(n, r)
        lam = copies * p ** math.comb(r, 2)
        est = janson_bound(clique(r), n, p)
        assert est.expected_copies == pytest.approx(float(lam), rel=1e-12)
        assert est.delta_upper >= float(exact) * (1 - 1e-12)
        exact_bound = math.exp(-float(lam**2 / (lam + 2 * exact)))
        assert exact_bound * (1 - 1e-12) <= est.nonexistence_bound <= 1.0

    def test_bound_decreases_with_n(self):
        bounds = [janson_bound(clique(3), n, 0.3).nonexistence_bound for n in (6, 10, 16)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_degenerate_inputs(self):
        est = janson_bound(clique(4), 3, 0.5)
        assert (est.expected_copies, est.delta_upper, est.nonexistence_bound) == (0, 0, 1)
        assert janson_bound(clique(3), 50, 0).nonexistence_bound == 1.0
        one_copy = janson_bound(clique(3), 3, 1)
        assert one_copy.expected_copies == 1.0
        assert one_copy.nonexistence_bound == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_probability_representations_agree(self):
        for p in (0.25, "1/4", Fraction(1, 4)):
            est = janson_bound(clique(3), 12, p)
            assert est.expected_copies == pytest.approx(220 * 0.25**3, rel=1e-12)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            janson_bound(clique(3), 10, 1.5)
        with pytest.raises(ParameterError):
            janson_bound(clique(3), 10, -0.1)
        with pytest.raises(ParameterError):
            janson_bound(clique(3), -1, 0.5)
        with pytest.raises(ParameterError):
            janson_bound(clique(13), 20, 0.5)
        with pytest.raises(ParameterError):
            janson_bound(empty_graph(3), 10, 0.5)
        with pytest.raises(ParameterError):
            janson_bound(clique(3), 10, "not-a-probability")
        with pytest.raises(ParameterError):
            janson_bound(clique(3), 10, "n^-2/3")

    @settings(max_examples=40, deadline=None)
    @given(
        r=st.integers(min_value=2, max_value=6),
        n=st.integers(min_value=0, max_value=30),
        num=st.integers(min_value=0, max_value=8),
    )
    def test_estimate_invariants(self, r, n, num):
        est = janson_bound(clique(r), n, Fraction(num, 8))
        assert est.expected_copies >= 0
        assert est.delta_upper >= 0
        assert 0 <= est.nonexistence_bound <= 1

    def test_json_dict(self):
        d = janson_bound(clique(3), 10, 0.2).to_json_dict()
        assert set(d) == {"expected_copies", "delta_upper", "nonexistence_bound"}


# -- density margins ------------------------------------------------------------


class TestDensityCondition:
    @pytest.mark.parametrize(
        "h,exponent",
        [
            (clique(3), Fraction(2, 3)),
            (star(4), Fraction(1)),
            (r7(), Fraction(2, 3)),
            (hat_k(3, 4), Fraction(7, 15)),
            (clique(4), Fraction(1, 2)),
            (path_graph(4), Fraction(5, 4)),
        ],
        ids=["triangle", "four-star", "r7", "hat-k34", "k4", "path4"],
    )
    def test_exhaustive_matches_subset_oracle(self, h, exponent):
        report = density_condition(h, exponent, MARGIN_UNIT)
        assert report.strategy == "exhaustive"
        assert report.min_value == oracle_margin_subsets(h, exponent)
        assert report.min_lower_bound == report.min_value
        assert induced_margin_value(h, report.witness, exponent) == report.min_value

    def test_reference_margins(self):
        cases = [
            (clique(3), Fraction(2, 3), Fraction(1), True),
            (star(4), Fraction(1), Fraction(1), True),
            (r7(), Fraction(2, 3), Fraction(1, 3), False),
            (hat_k(3, 4), Fraction(7, 15), Fraction(0), False),
            (t_graph(10), Fraction(2, 3), Fraction(1), True),
            (k_delta(5, 5), Fraction(7, 15), Fraction(23, 15), True),
        ]
        for h, x, expected_min, linear_ok in cases:
            unit = density_condition(h, x, MARGIN_UNIT)
            assert unit.min_value == expected_min
            assert unit.satisfied is True
            linear = density_condition(h, x, MARGIN_LINEAR)
            assert linear.satisfied is linear_ok

    def test_t10_matches_vectorized_oracle(self):
        report = density_condition(t_graph(10), Fraction(2, 3), MARGIN_LINEAR)
        assert report.strategy == "mincut"
        assert report.min_value == oracle_margin_vectorized(t_graph(10), 2, 3)
        assert induced_margin_value(t_graph(10), report.witness, Fraction(2, 3)) == report.min_value

    def test_k_delta_matches_symmetry_oracle(self):
        h = k_delta(5, 5)
        report = density_condition(h, Fraction(7, 15), MARGIN_UNIT)
        assert report.strategy == "mincut"
        assert report.min_value == oracle_margin_k_delta_5_5() == Fraction(23, 15)
        assert induced_margin_value(h, report.witness, Fraction(7, 15)) == report.min_value

    def test_mincut_agrees_with_exhaustive_on_random_graphs(self):
        rng = random.Random(20240814)
        exponents = [
            Fraction(1, 3),
            Fraction(7, 15),
            Fraction(2, 3),
            Fraction(1),
            Fraction(5, 4),
            Fraction(3, 2),
        ]
        checked = 0
        while checked < 250:
            n = rng.randint(4, 9)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            if not edges:
                continue
            h = Graph(n, edges)
            x = rng.choice(exponents)
            a, b = x.numerator, x.denominator
            scaled_exh, wit_exh = _density_exhaustive(h, a, b)
            scaled_cut, wit_cut = _density_mincut(h, a, b)
            assert scaled_cut == scaled_exh
            assert induced_margin_value(h, wit_cut, x) == Fraction(scaled_exh, b)
            checked += 1

    def test_mincut_matches_networkx_max_closure(self):
        """On 17-40 vertices, where density_condition takes the mincut path,
        its minimum equals an independent max-closure cut in networkx: the
        source pays a per edge, each vertex costs b to the sink, an edge
        node needs both its endpoints (uncapacitated arcs, infinite in
        networkx), and forcing the endpoints of each edge in turn keeps at
        least one edge in the chosen set."""
        rng = random.Random(20261018)
        exponents = [Fraction(1, 3), Fraction(7, 15), Fraction(2, 3), Fraction(1)]
        for _ in range(12):
            n = rng.randint(17, 40)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 3 / n]
            if not edges:
                continue
            h = Graph(n, edges)
            x = rng.choice(exponents)
            a, b = x.numerator, x.denominator
            net = nx.DiGraph()
            for i, (u, v) in enumerate(h.edges):
                net.add_edge("s", ("e", i), capacity=a)
                net.add_edge(("e", i), ("v", u))
                net.add_edge(("e", i), ("v", v))
            for w in range(n):
                net.add_edge(("v", w), "t", capacity=b)
            best = None
            for u, v in h.edges:
                forced = net.copy()
                forced.add_edge("s", ("v", u))
                forced.add_edge("s", ("v", v))
                best_with_uv = a * h.m - nx.minimum_cut_value(forced, "s", "t")
                best = best_with_uv if best is None else max(best, best_with_uv)
            report = density_condition(h, x, MARGIN_UNIT)
            assert report.strategy == "mincut"
            assert report.min_value == Fraction(-best, b)
            assert induced_margin_value(h, report.witness, x) == report.min_value

    def test_warm_started_mincut_matches_fresh_networks(self):
        """Every forced run starts from the unrestricted flow and restores
        it afterwards; the values and witnesses must be those of a fresh
        network per run.  The graphs take the forced-edge path: random
        sparse ones, and a long path or matching on the low vertex ids
        beside a denser block on the high ones, so that the best forced
        edge comes late and every earlier run must leave the network as
        it found it.  Disjoint equal blocks give ties, which go to the
        first edge."""
        rng = random.Random(20261022)
        exponents = [Fraction(1, 3), Fraction(7, 15), Fraction(1, 2),
                     Fraction(2, 3), Fraction(1)]
        forced = 0
        for _ in range(120):
            n = rng.randint(2, 40)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 1.2 / n]
            if not edges:
                continue
            h = Graph(n, edges)
            x = rng.choice(exponents)
            a, b = x.numerator, x.denominator
            fresh = density_mincut_fresh(h, a, b)
            assert _density_mincut(h, a, b) == fresh
            forced += fresh[0] >= 0
        assert forced >= 60
        late = []
        for k in range(3, 30):
            path = [(i, i + 1) for i in range(k - 1)]
            block = [(k + i, k + j) for i, j in combinations(range(4), 2)]
            late.append(Graph(k + 4, path + block))  # K4 last: density 3/2
            two = [(k + 4 + i, k + 4 + j) for i, j in combinations(range(4), 2)]
            late.append(Graph(k + 8, path + block + two))  # tied K4s
            matching = [(2 * i, 2 * i + 1) for i in range(k)]
            triangle = [(2 * k + i, 2 * k + j) for i, j in combinations(range(3), 2)]
            late.append(Graph(2 * k + 3, matching + triangle))  # the triangle wins at 2/3
        for h in late:
            for x in (Fraction(1, 2), Fraction(2, 3)):
                a, b = x.numerator, x.denominator
                fresh = density_mincut_fresh(h, a, b)
                assert fresh[0] >= 0  # the forced-edge path
                assert _density_mincut(h, a, b) == fresh

    def test_mincut_values_and_witnesses_are_pinned(self):
        """100 seeded graphs on 17-60 vertices, where `density_condition`
        takes the mincut path, sparse and dense, under the six exponents
        in turn: the (value, witness) pairs are pinned, so the witness stays
        the source side the solver has always returned."""
        rng = random.Random(20261021)
        exponents = [Fraction(1, 3), Fraction(7, 15), Fraction(2, 3),
                     Fraction(1), Fraction(5, 4), Fraction(3, 2)]
        digest = hashlib.sha256()
        for i in range(100):
            n = rng.randint(17, 60)
            p = rng.choice((1.5, 3.0, 6.0)) / n
            h = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
            if h.m == 0:
                continue
            x = exponents[i % len(exponents)]
            value, witness = _density_mincut(h, x.numerator, x.denominator)
            digest.update(repr((value, witness)).encode())
        assert digest.hexdigest() == (
            "4e882cf1bc38970a44cd24f1c007ca34f7419135ec0c059b6a30cad564dfa9ab")

    def test_disjoint_copies_share_the_minimum(self):
        doubled = disjoint_union([hat_k(3, 4), hat_k(3, 4)])
        report = density_condition(doubled, Fraction(7, 15), MARGIN_UNIT)
        assert report.min_value == Fraction(0)
        assert report.satisfied is True

    def test_degeneracy_certificate_for_huge_graphs(self):
        h = k_delta(25, 49)
        assert h.n > 120
        report = density_condition(h, Fraction(7, 15), MARGIN_LINEAR)
        assert report.strategy == "degeneracy"
        assert report.min_value is None and report.witness is None
        assert report.min_lower_bound >= 1
        assert report.satisfied is True

    def test_degeneracy_certificate_refuses_steep_exponents(self):
        with pytest.raises(StructureUnsupported):
            density_condition(k_delta(25, 49), Fraction(2, 3), MARGIN_LINEAR)

    @pytest.mark.parametrize("seed", range(6))
    def test_degeneracy_certificate_matches_networkx_cores(self, seed):
        """Above the mincut cap the certificate holds exactly when
        x * degeneracy <= 1, the degeneracy being the largest core number
        in networkx: 1/d is accepted and 1/(d - 1) refused, naming d."""
        rng = random.Random(f"degeneracy:{seed}")
        n = rng.randint(121, 180)
        target = rng.uniform(2.5, 9.0)  # mean degree
        edges = [e for e in combinations(range(n), 2) if rng.random() < target / n]
        h = Graph(n, edges)
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        d = max(nx.core_number(g).values())
        assert d >= 2
        report = density_condition(h, Fraction(1, d), MARGIN_LINEAR)
        assert report.strategy == "degeneracy"
        assert report.satisfied is True
        with pytest.raises(StructureUnsupported, match=f"degeneracy = {d}\\)"):
            density_condition(h, Fraction(1, d - 1), MARGIN_UNIT)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            density_condition(clique(3), Fraction(2, 3), "omega(log n)")
        with pytest.raises(ParameterError):
            density_condition(clique(3), -Fraction(1, 2), MARGIN_UNIT)
        with pytest.raises(ParameterError):
            density_condition(empty_graph(4), Fraction(2, 3), MARGIN_UNIT)
        with pytest.raises(ParameterError):
            density_condition(clique(3), "steep", MARGIN_UNIT)

    def test_json_dict_serializes_fractions(self):
        d = density_condition(r7(), Fraction(2, 3), MARGIN_UNIT).to_json_dict()
        assert d["min_value"] == "1/3"
        assert d["satisfied"] is True

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_minimum_never_exceeds_whole_graph_value(self, data):
        n = data.draw(st.integers(min_value=2, max_value=7))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.integers(min_value=1, max_value=(1 << len(pairs)) - 1))
        h = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
        x = Fraction(data.draw(st.integers(min_value=0, max_value=6)), 4)
        report = density_condition(h, x, MARGIN_UNIT)
        assert report.min_value <= h.n - x * h.m
        assert induced_margin_value(h, report.witness, x) == report.min_value


# -- structure audits -----------------------------------------------------------


class TestVerifyStructure:
    def test_single_clique_part(self):
        audit = verify_structure(clique(5))
        assert audit.parts == (((0, 1, 2, 3, 4), 10, 3),)
        assert audit.leftover_edges == 0
        assert audit.ok and audit.tree_like

    def test_bipartite_graph_is_vacuously_fine(self):
        audit = verify_structure(complete_bipartite(4, 4))
        assert audit.parts == ()
        assert audit.leftover_edges == 16
        assert audit.ok and audit.tree_like

    def test_deficiency_ceiling_violation(self):
        audit = verify_structure(clique(6))
        assert audit.parts[0][2] == 8
        assert [v.claim for v in audit.violations] == ["phi-at-most-7"]
        assert not audit.ok

    def test_two_dense_parts_sharing_two_vertices(self):
        # Two 7-vertex parts of deficiency 3, glued along the pair {0, 1},
        # which is non-adjacent inside both parts (otherwise a K4 through
        # that shared edge would merge them into a single part).
        g = union_of_cliques(
            12,
            [
                (0, 2, 3, 4), (1, 2, 3, 4), (5, 0, 2, 3), (6, 1, 2, 3),
                (0, 7, 8, 9), (1, 7, 8, 9), (10, 0, 7, 8), (11, 1, 7, 8),
            ],
        )
        audit = verify_structure(g)
        assert len(audit.parts) == 2
        assert sorted(part[0] for part in audit.parts) == [
            (0, 1, 2, 3, 4, 5, 6),
            (0, 1, 7, 8, 9, 10, 11),
        ]
        assert all(part[2] == 3 for part in audit.parts)
        claims = [v.claim for v in audit.violations]
        assert claims == ["dense-parts-share-at-most-one-vertex"]
        assert not audit.tree_like and not audit.ok

    def test_meet_cycle_violation(self):
        # Three 5-cliques pairwise sharing exactly one vertex, arranged in a
        # triangle: each pairwise overlap is legal, but the meet graph of the
        # dense parts contains a cycle.
        g = union_of_cliques(
            19,
            [(0, 2, 10, 11, 12), (0, 1, 13, 14, 15), (1, 2, 16, 17, 18)],
        )
        audit = verify_structure(g)
        assert len(audit.parts) == 3
        assert all(part[2] == 3 for part in audit.parts)
        claims = [v.claim for v in audit.violations]
        assert claims == ["dense-part-meets-form-forest"]
        assert not audit.tree_like and not audit.ok

    def test_chain_of_dense_parts_is_tree_like(self):
        g = union_of_cliques(13, [(0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10, 11, 12)])
        audit = verify_structure(g)
        assert len(audit.parts) == 3
        assert audit.ok and audit.tree_like

    def test_sparse_parts_may_share_two_vertices(self):
        # Deficiency-1 parts (two K4s sharing a triangle) may overlap in two
        # vertices: only parts of deficiency >= 3 are constrained.
        g = union_of_cliques(
            8,
            [(0, 2, 3, 4), (1, 2, 3, 4), (0, 5, 6, 7), (1, 5, 6, 7)],
        )
        audit = verify_structure(g)
        assert len(audit.parts) == 2
        assert all(part[2] == 1 for part in audit.parts)
        assert audit.ok and audit.tree_like

    def test_leftover_edges_are_counted(self):
        g = union_of_cliques(7, [(0, 1, 2, 3)])
        g = Graph(7, list(g.edges) + [(3, 4), (4, 5), (5, 6)])
        audit = verify_structure(g)
        assert audit.parts == (((0, 1, 2, 3), 6, 0),)
        assert audit.leftover_edges == 3
        assert audit.ok

    def test_json_dict(self):
        d = verify_structure(clique(6)).to_json_dict()
        assert d["parts"] == [{"vertices": [0, 1, 2, 3, 4, 5], "edges": 15, "phi": 8}]
        assert d["violations"][0]["claim"] == "phi-at-most-7"
        assert d["tree_like"] is True
        assert isinstance(verify_structure(clique(6)), StructureAudit)


# -- scan helpers ---------------------------------------------------------------


class TestScanHelpers:
    def test_has_clique(self):
        """The containment scan's test: the first clique of the generator,
        which stops there (clique(60) holds about 10**17 30-cliques)."""
        assert next(clique(6).iter_cliques(6)) == (0, 1, 2, 3, 4, 5)
        assert next(clique(6).iter_cliques(7), None) is None
        assert next(path_graph(4).iter_cliques(3), None) is None
        assert next(path_graph(4).iter_cliques(2)) == (0, 1)
        assert next(empty_graph(3).iter_cliques(1)) == (0,)
        assert next(empty_graph(3).iter_cliques(2), None) is None
        assert next(clique(60).iter_cliques(30)) == tuple(range(30))
        assert next(clique(3).iter_cliques(10**12), None) is None
        with pytest.raises(ParameterError):
            next(clique(3).iter_cliques(0))

    def test_parse_probability_forms(self):
        assert parse_probability(0.25, 10) == 0.25
        assert parse_probability("0.25", 10) == 0.25
        assert parse_probability("0.3*n^-5/4", 200) == pytest.approx(0.3 * 200**-1.25)
        assert parse_probability("n^-2/3", 300) == pytest.approx(300 ** (-2 / 3))
        assert parse_probability("n^-1", 50) == pytest.approx(0.02)
        assert parse_probability("2*n^-1/2", 100) == pytest.approx(0.2)
        assert parse_probability("1/10", 10) == Fraction(1, 10)
        assert parse_probability(" 0.1 ", 10) == Fraction(1, 10)
        assert isinstance(parse_probability("0.3*n^-5/4", 200), float)

    def test_parse_probability_rejects_bad_specs(self):
        for bad in ("2", "-0.2", "0.5*m^-1", "n^2/3", "n^-0.7", "", "1/0", "3/2", "nan",
                    "n^-1/0", "2*n^-3/0", "n^999999"):
            with pytest.raises(ParameterError):
                parse_probability(bad, 100)
        for bad in (1.5, float("nan"), float("inf")):
            with pytest.raises(ParameterError):
                parse_probability(bad, 100)

    @pytest.mark.parametrize("successes,trials", [(0, 10), (10, 10), (3, 17), (250, 500)])
    def test_wilson_interval_matches_scipy(self, successes, trials):
        low, high = wilson_interval(successes, trials)
        ci = binomtest(successes, trials).proportion_ci(
            confidence_level=0.95, method="wilson"
        )
        assert low == pytest.approx(ci.low, abs=1e-9)
        assert high == pytest.approx(ci.high, abs=1e-9)

    def test_scan_config_validation(self):
        good = dict(
            ell=4, n_values=(50,), p_specs=(0.1,), trials=5,
            mode="avoider-success-rate", seed=1,
        )
        ScanConfig(**good)
        with pytest.raises(ParameterError):
            ScanConfig(**{**good, "mode": "frequencies"})
        with pytest.raises(ParameterError):
            ScanConfig(**{**good, "trials": 0})
        with pytest.raises(ParameterError):
            ScanConfig(**{**good, "threads": 0})
        with pytest.raises(ParameterError, match="seed"):
            ScanConfig(**{**good, "seed": -1})
        with pytest.raises(ParameterError):
            ScanConfig(**{**good, "n_values": ()})
        with pytest.raises(ParameterError):
            ScanConfig(**{**good, "ell": 3})
        ScanConfig(**{**good, "ell": 3, "mode": "containment-rate"})


# -- threshold scans ------------------------------------------------------------


class TestThresholdScan:
    def test_containment_extremes(self):
        cfg = ScanConfig(
            ell=6, n_values=(10,), p_specs=(0.0, 1.0), trials=12,
            mode="containment-rate", seed=7,
        )
        rows = threshold_scan(cfg)
        assert [r.successes for r in rows] == [0, 12]
        assert rows[0].rate == 0.0 and rows[1].rate == 1.0

    def test_containment_rises_through_the_threshold(self):
        cfg = ScanConfig(
            ell=6, n_values=(150,), p_specs=("0.2*n^-2/3", "3*n^-2/3"), trials=40,
            mode="containment-rate", seed=3,
        )
        rows = threshold_scan(cfg)
        assert rows[0].rate <= 0.6
        assert rows[1].rate >= 0.95

    def test_thread_count_does_not_change_results(self):
        base = dict(
            ell=4, n_values=(50,), p_specs=("0.3*n^-5/4",), trials=30,
            mode="avoider-success-rate", seed=5,
        )
        one = scan_rows_to_csv(threshold_scan(ScanConfig(**base, threads=1)), deterministic=True)
        three = scan_rows_to_csv(threshold_scan(ScanConfig(**base, threads=3)), deterministic=True)
        assert one == three

    def test_same_seed_reproduces_and_seeds_differ(self):
        base = dict(
            ell=6, n_values=(150,), p_specs=("0.2*n^-2/3",), trials=40,
            mode="containment-rate",
        )
        first = threshold_scan(ScanConfig(**base, seed=3))
        again = threshold_scan(ScanConfig(**base, seed=3))
        other = threshold_scan(ScanConfig(**base, seed=4))
        assert [r.successes for r in first] == [r.successes for r in again]
        assert [r.successes for r in first] != [r.successes for r in other]

    def test_avoider_mode_succeeds_in_regime(self):
        cfg = ScanConfig(
            ell=4, n_values=(50,), p_specs=("0.3*n^-5/4",), trials=20,
            mode="avoider-success-rate", seed=11,
        )
        (row,) = threshold_scan(cfg)
        assert row.successes >= 15

    def test_avoider_mode_counts_only_validated_colourings(self, monkeypatch):
        # A total, proper colouring with a rainbow K4 is not a success.
        def rainbow_everywhere(instance):
            psi = EdgeColouring(instance.graph())
            psi.fill_fresh()
            return psi

        monkeypatch.setitem(AVOIDERS, 4, rainbow_everywhere)
        cfg = ScanConfig(
            ell=4, n_values=(12,), p_specs=(1.0,), trials=3,
            mode="avoider-success-rate", seed=1,
        )
        (row,) = threshold_scan(cfg)
        assert row.successes == 0

    def test_avoider_mode_k6(self):
        cfg = ScanConfig(
            ell=6, n_values=(80,), p_specs=("n^-7/10",), trials=8,
            mode="avoider-success-rate", seed=13,
        )
        (row,) = threshold_scan(cfg)
        assert row.successes >= 6

    def test_decider_mode_mixes_outcomes(self):
        cfg = ScanConfig(
            ell=4, n_values=(8,), p_specs=(0.5,), trials=10,
            mode="decider-on-tiny", seed=2,
        )
        (row,) = threshold_scan(cfg)
        assert 0 < row.successes < 10

    def test_csv_shape(self):
        cfg = ScanConfig(
            ell=6, n_values=(10,), p_specs=(0.0,), trials=3,
            mode="containment-rate", seed=1,
        )
        text = scan_rows_to_csv(threshold_scan(cfg), deterministic=True)
        lines = text.strip().splitlines()
        assert lines[0] == CSV_HEADER
        fields = lines[1].split(",")
        assert fields[:4] == ["10", "0", "3", "0"]
        assert fields[-1] == "0.000"


# -- sparse random-graph sampling ------------------------------------------------


class TestSparseSampling:
    def test_sparse_path_is_deterministic(self):
        a = sample_gnp(5000, 5e-4, np.random.default_rng(9))
        b = sample_gnp(5000, 5e-4, np.random.default_rng(9))
        c = sample_gnp(5000, 5e-4, np.random.default_rng(10))
        assert a.edges == b.edges
        assert a.edges != c.edges

    def test_sparse_edges_are_valid_and_near_expectation(self):
        n, p = 5000, 1e-3
        g = sample_gnp(n, p, np.random.default_rng(123))
        assert all(0 <= u < v < n for u, v in g.edges)
        assert len(set(g.edges)) == g.m
        lam = math.comb(n, 2) * p
        assert abs(g.m - lam) < 5 * math.sqrt(lam)

    def test_decoder_emits_increasing_valid_ranks(self):
        n = 50
        edges = _sparse_gnp_edges(n, math.comb(n, 2), 0.25, np.random.default_rng(77))
        ranks = [u * (2 * n - 1 - u) // 2 + (v - u - 1) for u, v in edges]
        assert ranks == sorted(set(ranks))
        assert all(0 <= r < math.comb(n, 2) for r in ranks)
        assert all(0 <= u < v < n for u, v in edges)

    def test_decoder_mean_matches_binomial(self):
        n, p = 50, 0.25
        pairs = math.comb(n, 2)
        counts = [
            len(_sparse_gnp_edges(n, pairs, p, np.random.default_rng(1000 + i)))
            for i in range(200)
        ]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(pairs * p * (1 - p) / len(counts))
        assert abs(mean - pairs * p) < 5 * sigma

    def test_both_paths_work_at_the_boundary(self):
        for n in (2828, 2830):
            g = sample_gnp(n, 1e-4, np.random.default_rng(4))
            assert g.n == n
            assert all(0 <= u < v < n for u, v in g.edges)

    def test_edge_count_distribution_is_binomial(self):
        # Chi-square goodness of fit over 10^3 samples at alpha = 0.01,
        # binning edge counts into ~10 equiprobable Binomial(C(n,2), p) cells.
        n, p, samples = 30, 0.2, 1000
        pairs = math.comb(n, 2)
        rng = np.random.default_rng(20260814)
        counts = np.array([sample_gnp(n, p, rng).m for _ in range(samples)])

        dist = scipy.stats.binom(pairs, p)
        bounds = np.unique(dist.ppf(np.linspace(0.1, 0.9, 9)).astype(int))
        idx = np.digitize(counts, bounds, right=True)
        observed = np.bincount(idx, minlength=len(bounds) + 1)

        cdf = dist.cdf(bounds)
        probs = np.diff(np.concatenate(([0.0], cdf, [1.0])))
        assert observed.sum() == samples
        assert np.all(probs * samples >= 5)
        result = scipy.stats.chisquare(observed, probs * samples)
        assert result.pvalue >= 0.01
