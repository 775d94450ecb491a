"""Tests for K4-tiled decomposition, growth sequences, and K8 avoidance.

Oracle discipline: rainbow copies are always recomputed by a direct scan of
the colouring (never trusted from the code under test); certificates are
validated against that scan; sequence counters are validated against the
vertex/edge counts of the produced graphs.
"""

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowlab import tiled_k8, verification
from rainbowlab.avoiders import validate
from rainbowlab.colouring import (
    EdgeColouring,
    is_proper,
    rainbow_copies,
    random_proper_colouring,
)
from rainbowlab.errors import (
    OutOfRegime,
    ParameterError,
    SearchExhausted,
    StructureUnsupported,
)
from rainbowlab.graph import Graph
from rainbowlab.model import PerturbedInstance, sample_perturbed
from rainbowlab.tiled_k8 import (
    RED,
    CoverCertificate,
    GeneratingSequence,
    _cover_certificate,
    _index_draws,
    _partial_colouring,
    _QuadTable,
    avoid_k8,
    avoid_k8_perturbed,
    certificate_allowed,
    certificate_covers,
    colour_component_tree,
    colour_tiled,
    corpus_graph,
    find_stretched_sequence,
    k4_components,
    phi,
    random_tiled_graph,
)


# -- oracles ----------------------------------------------------------------


def complete_graph(n):
    return Graph(n, list(combinations(range(n), 2)))


def pairs(vs):
    return [tuple(sorted(p)) for p in combinations(vs, 2)]


def rainbow_quads(g, psi):
    """Direct scan: K4 copies whose six edges carry six distinct colours."""
    out = []
    for q in g.cliques(4):
        cols = {psi.get(*e) for e in pairs(q)}
        if None not in cols and len(cols) == 6:
            out.append(q)
    return out


def assert_certificate_sound(g, psi, cert):
    rq = rainbow_quads(g, psi)
    if cert.kind == "no-rainbow":
        assert rq == []
    elif cert.kind == "triangle":
        assert cert.triangle is not None
        assert all(g.has_edge(*e) for e in pairs(cert.triangle))
        assert all(set(cert.triangle) <= set(q) for q in rq)
    else:
        assert cert.kind == "matching"
        m = cert.matching
        assert 1 <= len(m) <= 3
        ends = [v for e in m for v in e]
        assert len(ends) == len(set(ends))
        assert all(g.has_edge(*e) for e in m)
        assert all(any(set(e) <= set(q) for e in m) for q in rq)


BOOK = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
                 (0, 4), (0, 5), (1, 4), (1, 5), (4, 5)])
TRI_SHARE = Graph(5, pairs(range(4)) + [(0, 4), (1, 4), (2, 4)])
K5_PLUS_VERTEX = Graph(6, pairs(range(5)) + [(0, 5), (1, 5), (2, 5)])
# random_tiled_graph(seed 0) outputs, frozen: the first has a triangle
# certificate at phi = 5, the second a matching certificate at phi = 7.
TRIANGLE_CERT_GRAPH = Graph(7, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
    (1, 4), (2, 3), (2, 4), (2, 6), (3, 5), (3, 6), (4, 6), (5, 6)])
MATCHING_CERT_GRAPH = Graph(7, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
    (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (5, 6)])


def shift_graph(g, offset, n):
    return [(u + offset, v + offset) for u, v in g.edges], n


# -- grading and decomposition ----------------------------------------------


def test_phi_small_graphs():
    assert phi(complete_graph(4)) == 0
    assert phi(complete_graph(5)) == 3
    assert phi(complete_graph(6)) == 8
    assert phi(BOOK) == 0
    assert phi(TRI_SHARE) == 1
    assert phi(K5_PLUS_VERTEX) == 4


def test_phi_ignores_isolated_vertices():
    padded = Graph(10, pairs(range(4)))
    assert phi(padded) == 0


def test_stretched_accepts_only_tiled_graphs():
    for g in (complete_graph(4), complete_graph(5), BOOK, TRI_SHARE):
        assert find_stretched_sequence(g).graph() == g
    # a pendant edge is in no K4; two K4 copies sharing one vertex form two
    # components
    for g in (Graph(3, [(0, 1), (0, 2), (1, 2)]), Graph(4, []),
              Graph(5, pairs(range(4)) + [(3, 4)]),
              Graph(7, pairs(range(4)) + pairs(range(3, 7)))):
        with pytest.raises(ParameterError, match="not K4-tiled"):
            find_stretched_sequence(g)


def test_k4_components_single():
    comps, leftover = k4_components(complete_graph(4))
    assert leftover == ()
    assert len(comps) == 1
    sub, back = comps[0]
    assert back == [0, 1, 2, 3]
    assert sorted(sub.edges) == pairs(range(4))


def test_k4_components_shared_vertex():
    g = Graph(7, pairs(range(4)) + pairs(range(3, 7)))
    comps, leftover = k4_components(g)
    assert leftover == ()
    assert len(comps) == 2
    backs = sorted(tuple(b) for _, b in comps)
    assert backs == [(0, 1, 2, 3), (3, 4, 5, 6)]


def test_k4_components_book():
    comps, leftover = k4_components(BOOK)
    assert leftover == ()
    assert len(comps) == 1
    sub, _ = comps[0]
    assert sub.n == 6 and sub.m == 11


def test_k4_components_leftover():
    g = Graph(6, pairs(range(4)) + [(4, 5)])
    comps, leftover = k4_components(g)
    assert len(comps) == 1
    assert leftover == ((4, 5),)


@st.composite
def small_graphs(draw):
    """At most 10 vertices: a union of random K4 copies (tiled, or meeting
    at single vertices) plus random extra edges (pendants, K4-free parts)."""
    n = draw(st.integers(0, 10))
    vertex = st.integers(0, max(n - 1, 0))
    edges = set()
    if n >= 4:
        for quad in draw(st.lists(st.lists(vertex, min_size=4, max_size=4, unique=True),
                                  max_size=4)):
            edges.update(pairs(quad))
    if n >= 2:
        for u, v in draw(st.lists(st.lists(vertex, min_size=2, max_size=2, unique=True),
                                  max_size=6)):
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


@settings(max_examples=300, deadline=None)
@given(small_graphs())
@example(Graph(0, []))
@example(Graph(4, []))
@example(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))  # K4-free
@example(Graph(5, pairs(range(4)) + [(3, 4)]))  # pendant edge
@example(Graph(7, pairs(range(4)) + pairs(range(3, 7))))  # K4s meet at a vertex
@example(BOOK)
@example(complete_graph(7))
def test_quad_table_matches_components_and_cliques(g):
    tab = _QuadTable(g)
    comps, leftover = k4_components(g)
    assert tab.is_tiled() == (g.m > 0 and not leftover and len(comps) == 1)
    assert tab.k5s() == g.cliques(5)


# -- stretched sequences -----------------------------------------------------


def test_stretched_k4_empty():
    seq = find_stretched_sequence(complete_graph(4))
    assert seq.base_kind == "K4"
    assert seq.steps == ()
    assert (seq.alpha, seq.beta, seq.gamma) == (0, 0, 0)
    assert seq.phi_value() == 0


def test_stretched_k5_base():
    seq = find_stretched_sequence(complete_graph(5))
    assert seq.base_kind == "K5"
    assert seq.steps == ()
    assert seq.phi_value() == 3 == phi(complete_graph(5))


def test_stretched_book_one_standard_step():
    seq = find_stretched_sequence(BOOK)
    assert seq.base_kind == "K4"
    assert [s.kind for s in seq.steps] == ["standard"]
    assert (seq.alpha, seq.beta, seq.gamma) == (1, 0, 0)
    assert seq.phi_value() == 0 == phi(BOOK)


def test_stretched_vertex_step():
    seq = find_stretched_sequence(TRI_SHARE)
    assert [s.kind for s in seq.steps] == ["vertex"]
    assert (seq.alpha, seq.beta, seq.gamma) == (0, 1, 0)
    assert seq.steps[0].missing_edges == ()
    assert seq.phi_value() == 1 == phi(TRI_SHARE)


def test_stretched_k6():
    seq = find_stretched_sequence(complete_graph(6))
    assert seq.base_kind == "K5"
    assert seq.alpha == 0
    assert seq.phi_value() == 8 == phi(complete_graph(6))
    # maximal length: one vertex-step plus two 1-edge-steps
    assert len(seq.steps) == 3


def test_stretched_rejects_untiled():
    with pytest.raises(ParameterError):
        find_stretched_sequence(Graph(3, [(0, 1), (0, 2), (1, 2)]))


def test_stretched_vertex_cap():
    edges = set(pairs(range(4)))
    n = 4
    while n < 16:
        z, w, x, y = n - 2, n - 1, n, n + 1
        edges.update(tuple(sorted(e)) for e in
                     ((x, y), (x, z), (x, w), (y, z), (y, w)))
        n += 2
    with pytest.raises(ParameterError):
        find_stretched_sequence(Graph(n, sorted(edges)))


def test_sequence_counter_identities_corpus():
    rng = random.Random(7)
    for _ in range(50):
        g = random_tiled_graph(rng, max_vertices=9, steps=5)
        seq = find_stretched_sequence(g)  # raises unless g is K4-tiled
        b = len(seq.base_vertices)
        v = sum(1 for u in range(g.n) if g.adj[u])
        assert v == b + 2 * seq.alpha + seq.beta
        assert g.m == b * (b - 1) // 2 + 5 * seq.alpha + 3 * seq.beta + seq.gamma
        assert seq.phi_value() == phi(g)
        assert phi(g) >= 0
        assert (seq.base_kind == "K5") == bool(g.cliques(5))
        assert seq.graph() == g


def _replay_edge_sets(seq):
    """Edge set before each step, then the final edge set."""
    cur = set(pairs(seq.base_vertices))
    snaps = [set(cur)]
    for st in seq.steps:
        cur.update(st.added_edges)
        snaps.append(set(cur))
    return snaps


def count_k4(n, edges):
    return len(Graph(n, sorted(edges)).cliques(4))


def test_first_edge_step_structure():
    """For stretched sequences, a leading 1-edge-step is heavily constrained:
    it adds exactly one K4 copy and needs enough prior vertex-steps."""
    rng = random.Random(19)
    seen_k4_case = seen_k5_case = 0
    for _ in range(250):
        g = random_tiled_graph(rng, max_vertices=9, steps=5)
        seq = find_stretched_sequence(g)
        first_edge = next((i for i, s in enumerate(seq.steps)
                           if s.kind == "edge"), None)
        if first_edge is None or len(seq.steps[first_edge].added_edges) != 1:
            continue
        before = _replay_edge_sets(seq)[first_edge]
        st = seq.steps[first_edge]
        added = count_k4(g.n, before | set(st.added_edges)) - count_k4(g.n, before)
        prior = seq.steps[:first_edge]
        n_vertex = sum(1 for s in prior if s.kind == "vertex")
        n_missing = sum(1 for s in prior
                        if s.kind == "vertex" and s.missing_edges)
        if seq.base_kind == "K4" and not g.cliques(5):
            seen_k4_case += 1
            assert added == 1
            assert n_missing >= 1 or n_vertex >= 2
        elif seq.base_kind == "K5":
            seen_k5_case += 1
            assert n_vertex >= 1
    assert seen_k4_case >= 3
    assert seen_k5_case >= 3


def test_random_tiled_graph_always_tiled():
    rng = random.Random(23)
    for _ in range(40):
        g = random_tiled_graph(rng, max_vertices=10, steps=6)
        assert g.n <= 10
        # a non-tiled graph raises ParameterError before the search starts
        try:
            find_stretched_sequence(g, node_budget=1)
        except SearchExhausted:
            pass  # tiled; only the search was cut short


@pytest.mark.parametrize("seed", range(4))
def test_index_draws_match_random_sample_and_choice(seed):
    """The draw's index helpers read the generator as `Random.sample` over
    range(n) and `Random.choice` do: the same indices, and the same next
    `random()` after them, for every k <= 5 the pool branch (n <= 21) and
    the set branch take.  An interpreter whose sample or choice draws
    differently fails here by name, before any golden hash does."""
    ours, ref = random.Random(f"index:{seed}"), random.Random(f"index:{seed}")
    below, sample, _ = _index_draws(ours)
    for n in range(1, 41):
        for k in range(1, min(5, n) + 1):
            for _ in range(4):
                assert sample(n, k) == ref.sample(range(n), k), (n, k)
                assert ours.random() == ref.random(), (n, k)
    for length in range(1, 71):
        seq = [(length, i) for i in range(length)]
        for _ in range(4):
            assert seq[below(length)] == ref.choice(seq), length
            assert ours.random() == ref.random(), length


@pytest.mark.parametrize("seed", range(3))
def test_spend_reads_the_words_of_sample_calls(seed):
    """`spend(n, k, times)` leaves the generator where `times` calls of
    `Random.sample(range(n), k)` leave it, for the pool branch's n."""
    for n in range(4, 22):
        for k in (3, 4):
            for times in (1, 30):
                ours = random.Random(f"spend:{seed}:{n}:{k}:{times}")
                ref = random.Random(f"spend:{seed}:{n}:{k}:{times}")
                _, _, spend = _index_draws(ours)
                assert spend(n, k, times) is None
                for _ in range(times):
                    ref.sample(range(n), k)
                assert ours.random() == ref.random(), (n, k, times)


def test_corpus_edge_steps_spend_on_complete_graphs(monkeypatch):
    """The corpora of seeds 0-2 take the complete-graph edge step on K5
    and K6 too, not only on K4, and always for 30 four-vertex attempts."""
    spent = Counter()

    def recording_draws(rng):
        below, sample, spend = _index_draws(rng)

        def recording_spend(n, k, times):
            spent[n, k, times] += 1
            spend(n, k, times)

        return below, sample, recording_spend

    monkeypatch.setattr(tiled_k8, "_index_draws", recording_draws)
    for seed in range(3):
        for index in range(1000):
            corpus_graph(seed, index)
    assert {(4, 4, 30), (5, 4, 30), (6, 4, 30)} <= set(spent)
    assert {(k, times) for _, k, times in spent} == {(4, 30)}


def test_tiled_audit_colours_each_distinct_graph_once_per_call(monkeypatch):
    """The audit colours each distinct corpus graph once, and remembers
    nothing between calls: a second identical call colours them all again."""
    distinct = len({corpus_graph(8311, index)[0] for index in range(1000)})
    assert distinct == 491
    coloured = []

    def counting_colour_tiled(g):
        coloured.append(g)
        return colour_tiled(g)

    monkeypatch.setattr(verification, "colour_tiled", counting_colour_tiled)
    for _ in range(2):
        coloured.clear()
        assert verification.check_tiled_corpus(8311, "quick").passed
        assert len(coloured) == len(set(coloured)) == distinct


# -- fault injection: the audit reports each broken output ---------------------

AUDIT_SEED = 8311
AUDIT_TARGET = 5  # a corpus index the audit re-solves (quick re-solves 0-74)


def audit_target_violations(monkeypatch, name, broken, *messages):
    """Patch `verification.<name>` to hand back `broken(output)` for the
    corpus graph at AUDIT_TARGET only, run the quick audit, and check that
    it reports `graph {i}: <message>` for each message, in order, at each
    index that draws that graph."""
    target = corpus_graph(AUDIT_SEED, AUDIT_TARGET)[0]
    real = getattr(verification, name)

    def patched(g, **kwargs):
        out = real(g, **kwargs)
        return broken(out) if g == target else out

    monkeypatch.setattr(verification, name, patched)
    result = verification.check_tiled_corpus(AUDIT_SEED, "quick")
    assert not result.passed
    limit = 75 if name == "find_stretched_sequence" else 1000
    hits = [i for i in range(limit) if corpus_graph(AUDIT_SEED, i)[0] == target]
    expected = [f"graph {i}: {message}" for i in hits for message in messages]
    assert AUDIT_TARGET in hits
    assert result.details["violations"] == expected[:10]


def test_tiled_audit_reports_an_improper_colouring(monkeypatch):
    def clash(out):
        psi, cert = out
        bad = psi.copy()
        (a, b), (c, d) = bad.graph.edges[:2]  # the two least edges share vertex 0
        assert a == c == 0
        bad.recolour_many([(c, d)], [psi.get(a, b)])
        return bad, cert

    audit_target_violations(monkeypatch, "colour_tiled", clash,
                            "colouring not total+proper")


def test_tiled_audit_reports_a_partial_colouring(monkeypatch):
    """An uncoloured edge is a wildcard to the rainbow scan, so the
    certificate is reported unsound as well."""
    kind = colour_tiled(corpus_graph(AUDIT_SEED, AUDIT_TARGET)[0])[1].kind

    def drop_an_edge(out):
        psi, cert = out
        part = EdgeColouring(psi.graph)
        kept = psi.graph.edges[1:]
        part.assign_many(kept, psi.colours(kept))
        return part, cert

    audit_target_violations(monkeypatch, "colour_tiled", drop_an_edge,
                            "colouring not total+proper", f"certificate {kind} unsound")


class _Sequence:
    """A stand-in for a GeneratingSequence with edited answers."""

    def __init__(self, all_edges, phi_value):
        self.all_edges = lambda: all_edges
        self.phi_value = lambda: phi_value


def test_tiled_audit_reports_a_sequence_missing_an_edge(monkeypatch):
    audit_target_violations(
        monkeypatch, "find_stretched_sequence",
        lambda seq: _Sequence(seq.all_edges()[1:], seq.phi_value()),
        "re-solved sequence misses edges")


def test_tiled_audit_reports_a_wrong_phi(monkeypatch):
    f = phi(corpus_graph(AUDIT_SEED, AUDIT_TARGET)[0])
    audit_target_violations(
        monkeypatch, "find_stretched_sequence",
        lambda seq: _Sequence(seq.all_edges(), seq.phi_value() + 1),
        f"phi {f} != 2*gamma+beta value {f + 1}")


class NoWrappersRandom(random.Random):
    def sample(self, *args, **kwargs):
        raise AssertionError("tiled draw called Random.sample")

    def choice(self, *args, **kwargs):
        raise AssertionError("tiled draw called Random.choice")


def test_tiled_draws_read_the_generator_directly(monkeypatch):
    """A draw makes no `sample` or `choice` call, and `corpus_graph` builds
    one Graph per returned graph, however many draws it redrew."""
    for seed in range(20):
        random_tiled_graph(NoWrappersRandom(seed), max_vertices=30, steps=14)
    built = []

    class CountingGraph(Graph):
        def __init__(self, n, edges):
            built.append(n)
            super().__init__(n, edges)

    monkeypatch.setattr("rainbowlab.tiled_k8.Graph", CountingGraph)
    monkeypatch.setattr("rainbowlab.tiled_k8.random.Random", NoWrappersRandom)
    redrawn = 0
    for index in range(60):
        built.clear()
        g, draws = corpus_graph(8, index)
        assert built == [g.n]
        redrawn += draws > 1
    assert redrawn


# -- partial colouring --------------------------------------------------------


def replay_ledger(seq):
    """Per-step facts of the default replay, read off the replay of every
    prefix of seq (the replay of a prefix is the replay's state after it).

    Returns (bound_ok, problematic, vertex_steps): whether after every step
    each triangle has at most (its vertex-steps so far) + 1 saturating
    colours, the anchor triangles of the vertex-steps that coloured no edge
    (in step order), and the vertex-steps attached to each triangle.  A
    colour on an edge of a triangle saturates it when the third vertex
    also sees that colour.
    """
    bound_ok, problematic, coloured_before = True, [], 0
    for i in range(len(seq.steps) + 1):
        prefix = GeneratingSequence(seq.base_vertices, seq.steps[:i], seq.n)
        psi = _partial_colouring(prefix.graph(), prefix)
        coloured = psi.domain()
        vertex_steps = Counter(tuple(sorted(s.anchor))
                               for s in prefix.steps if s.kind == "vertex")
        seen = {}
        for a, b in coloured:
            seen.setdefault(a, set()).add(psi.get(a, b))
            seen.setdefault(b, set()).add(psi.get(a, b))
        for tri in prefix.graph().triangles():
            saturating = {psi.get(a, b) for a, b in pairs(tri)
                          if psi.get(a, b) in seen.get(sum(tri) - a - b, ())}
            if len(saturating) > vertex_steps[tri] + 1:
                bound_ok = False
        if i and seq.steps[i - 1].kind == "vertex" and len(coloured) <= coloured_before:
            problematic.append(tuple(sorted(seq.steps[i - 1].anchor)))
        coloured_before = len(coloured)
    return bound_ok, problematic, dict(vertex_steps)


# Two vertex-steps; the second, on triangle 145, colours nothing.
TWO_VERTEX_STEPS = Graph(7, [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3), (1, 4),
    (1, 5), (1, 6), (2, 3), (2, 4), (2, 5), (4, 5), (4, 6), (5, 6)])


@pytest.mark.parametrize("g,expected", [
    (TRI_SHARE, (True, [], {(0, 1, 2): 1})),
    # the K5 one-factorisation saturates every triangle twice, with no
    # vertex-step: the bound is only proven from a K4 base
    (complete_graph(5), (False, [], {})),
    (TWO_VERTEX_STEPS, (False, [(1, 4, 5)], {(0, 1, 2): 1, (1, 4, 5): 1})),
], ids=["triangle-share", "K5", "two-vertex-steps"])
def test_replay_ledger_examples(g, expected):
    """The expected values come from an independent count: the per-step
    saturation bookkeeping the replay itself once kept."""
    assert replay_ledger(find_stretched_sequence(g)) == expected


def test_partial_base_k4():
    g = complete_graph(4)
    seq = find_stretched_sequence(g)
    psi = _partial_colouring(g, seq)
    coloured = [e for e in pairs(range(4)) if psi.get(*e) is not None]
    assert len(coloured) == 2
    c1, c2 = (psi.get(*e) for e in coloured)
    assert c1 == c2
    assert set(coloured[0]).isdisjoint(coloured[1])
    assert replay_ledger(seq)[1] == []


def test_partial_base_k5_factorisation():
    g = complete_graph(5)
    psi = _partial_colouring(g, find_stretched_sequence(g))
    assert psi.is_total()
    assert is_proper(g, psi)
    classes = {}
    for e in pairs(range(5)):
        classes.setdefault(psi.get(*e), []).append(e)
    assert len(classes) == 5
    for es in classes.values():
        assert len(es) == 2
        assert set(es[0]).isdisjoint(es[1])
    assert rainbow_quads(g, psi) == []


def test_partial_all_standard_never_problematic():
    edges = set(pairs(range(4)))
    n = 4
    while n < 12:
        z, w, x, y = n - 2, n - 1, n, n + 1
        edges.update(tuple(sorted(e)) for e in
                     ((x, y), (x, z), (x, w), (y, z), (y, w)))
        n += 2
    g = Graph(n, sorted(edges))
    seq = find_stretched_sequence(g)
    assert all(s.kind == "standard" for s in seq.steps)
    assert replay_ledger(seq)[1] == []
    assert rainbow_quads(g, _partial_colouring(g, seq)) == []


def test_partial_properness_corpus():
    rng = random.Random(3)
    for _ in range(60):
        g = random_tiled_graph(rng, max_vertices=8, steps=4)
        seq = find_stretched_sequence(g)
        assert is_proper(g, _partial_colouring(g, seq))


def test_partial_saturation_bound_where_proven():
    """The per-triangle bound (saturating colours <= vertex-steps + 1) holds
    for sequences from a K4 base with no added-between-existing edges on
    K5-free graphs; each problematic triangle then needs >= 3 vertex-steps."""
    rng = random.Random(11)
    in_scope = 0
    for _ in range(500):
        g = random_tiled_graph(rng, max_vertices=9, steps=5)
        if g.cliques(5):
            continue
        seq = find_stretched_sequence(g)
        if seq.gamma != 0 or seq.base_kind != "K4":
            continue
        in_scope += 1
        bound_ok, problematic, vertex_steps = replay_ledger(seq)
        assert bound_ok
        for tri in problematic:
            assert vertex_steps.get(tri, 0) >= 3
    assert in_scope >= 10


# -- certificates -------------------------------------------------------------


def test_cover_certificate_no_rainbow():
    g = complete_graph(4)
    psi = EdgeColouring(g)
    psi.assign(0, 1, 0)
    psi.assign(2, 3, 0)
    for e in pairs(range(4)):
        if psi.get(*e) is None:
            psi.assign_fresh(*e)
    cert = _cover_certificate(_QuadTable(g), psi)
    assert cert.kind == "no-rainbow"


def test_cover_certificate_triangle():
    g = complete_graph(4)
    psi = EdgeColouring(g)
    for e in pairs(range(4)):
        psi.assign_fresh(*e)
    cert = _cover_certificate(_QuadTable(g), psi)
    assert cert.kind == "triangle"
    assert cert.triangle == (0, 1, 2)
    assert_certificate_sound(g, psi, cert)


def test_cover_certificate_matching():
    g = Graph(8, pairs(range(4)) + pairs(range(4, 8)))
    psi = EdgeColouring(g)
    for u, v in g.edges:
        psi.assign_fresh(u, v)
    cert = _cover_certificate(_QuadTable(g), psi)
    assert cert.kind == "matching"
    assert len(cert.matching) == 2
    assert_certificate_sound(g, psi, cert)


def test_cover_certificate_uncoverable():
    g = Graph(16, [e for k in range(4) for e in pairs(range(4 * k, 4 * k + 4))])
    psi = EdgeColouring(g)
    for u, v in g.edges:
        psi.assign_fresh(u, v)
    assert _cover_certificate(_QuadTable(g), psi) is None


def test_cover_certificate_needs_a_total_colouring():
    g = complete_graph(4)
    psi = EdgeColouring(g)
    for e in pairs(range(4))[:-1]:
        psi.assign_fresh(*e)
    with pytest.raises(ParameterError, match="total"):
        _cover_certificate(_QuadTable(g), psi)


def reference_cover_certificate(g, psi):
    """The certificate search as first written: the rainbow K4s come from
    `rainbow_copies` over K4 embeddings, the triangle and matching search
    follows."""
    if not psi.is_total():
        raise ParameterError("cover_certificate needs a total colouring")
    rain = rainbow_copies(g, psi, complete_graph(4))
    if not rain:
        return CoverCertificate("no-rainbow")
    for tri in combinations(sorted(rain[0]), 3):
        if all(set(tri) <= set(q) for q in rain):
            return CoverCertificate("triangle", triangle=tri)
    cand = sorted({e for q in rain for e in pairs(q)})
    for size in (1, 2, 3):
        for m in combinations(cand, size):
            vs = [v for e in m for v in e]
            if len(vs) != len(set(vs)):
                continue
            if all(any(set(e) <= set(q) for e in m) for q in rain):
                return CoverCertificate("matching", matching=m)
    return None


@pytest.mark.parametrize("bias", [0.0, 0.3, 1.0])
def test_cover_certificate_matches_reference(bias):
    """On random proper colourings of corpus graphs, from mostly reused
    colours (few rainbow K4s) to all fresh (every K4 rainbow, often no
    certificate), the certificate is the reference's."""
    rng = random.Random(f"certificate:{bias}")
    kinds = Counter()
    for index in range(200):
        g, _ = corpus_graph(4, index)
        psi = random_proper_colouring(g, rng, bias)
        psi.fill_fresh()
        cert = _cover_certificate(_QuadTable(g), psi)
        assert cert == reference_cover_certificate(g, psi)
        kinds[None if cert is None else cert.kind] += 1
    if bias == 1.0:
        assert kinds[None] and kinds["triangle"] and kinds["matching"]
    else:
        assert len(kinds) >= 3


def test_certificate_checks():
    tri = CoverCertificate("triangle", triangle=(0, 1, 2))
    match = CoverCertificate("matching", matching=((0, 1), (4, 5)))
    assert certificate_covers(CoverCertificate("no-rainbow"), [])
    assert not certificate_covers(CoverCertificate("no-rainbow"), [(0, 1, 2, 3)])
    assert certificate_covers(tri, [(0, 1, 2, 3), (0, 1, 2, 5)])
    assert not certificate_covers(tri, [(0, 1, 3, 4)])
    assert certificate_covers(match, [(0, 1, 2, 3), (4, 5, 6, 7)])
    assert not certificate_covers(match, [(0, 2, 4, 6)])
    too_big = CoverCertificate("matching", matching=((0, 1), (2, 3), (4, 5), (6, 7)))
    assert not certificate_covers(too_big, [(0, 1, 2, 3)])
    assert [certificate_allowed(tri, f) for f in (2, 3, 5, 6, 7)] == [False] + [True] * 4
    assert [certificate_allowed(match, f) for f in (5, 6, 7)] == [False, True, True]
    assert not certificate_allowed(None, 7)


# -- colour_tiled -------------------------------------------------------------


@pytest.mark.parametrize("g", [complete_graph(4), BOOK, TRI_SHARE],
                         ids=["K4", "book", "triangle-share"])
def test_colour_tiled_low_phi_no_rainbow(g):
    psi, cert = colour_tiled(g)
    assert cert.kind == "no-rainbow"
    assert psi.is_total()
    assert is_proper(g, psi)
    assert rainbow_quads(g, psi) == []


def test_colour_tiled_k5():
    psi, cert = colour_tiled(complete_graph(5))
    assert cert.kind in ("no-rainbow", "triangle")
    assert_certificate_sound(complete_graph(5), psi, cert)


def test_colour_tiled_triangle_class():
    g = TRIANGLE_CERT_GRAPH
    assert phi(g) == 5
    psi, cert = colour_tiled(g)
    assert psi.is_total() and is_proper(g, psi)
    assert cert.kind in ("no-rainbow", "triangle")
    assert_certificate_sound(g, psi, cert)


def test_colour_tiled_matching_class():
    g = MATCHING_CERT_GRAPH
    assert phi(g) == 7
    psi, cert = colour_tiled(g)
    assert psi.is_total() and is_proper(g, psi)
    assert_certificate_sound(g, psi, cert)


def test_colour_tiled_keeps_isolated_vertices():
    g = Graph(6, pairs(range(4)))  # vertices 4 and 5 are isolated
    seq = find_stretched_sequence(g)
    assert seq.n == 6 and seq.graph() == g
    psi, cert = colour_tiled(g)
    assert psi.graph == g
    assert psi.is_total() and is_proper(g, psi)
    assert cert.kind == "no-rainbow"


def test_tiled_memory_ignores_isolated_vertices():
    """The search and the colourer allocate by edges, not vertices: beside
    3,000 isolated vertices a K4 takes far less than an n x n edge-id
    table (72 MB) or a colour set per vertex (0.65 MB) would."""
    g = Graph(3004, pairs(range(4)))
    tracemalloc.start()
    try:
        seq = find_stretched_sequence(g)
        psi, cert = colour_tiled(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert seq.n == 3004 and seq.steps == ()
    assert psi.is_total() and is_proper(g, psi)
    assert cert.kind == "no-rainbow"


def test_colour_tiled_out_of_regime():
    with pytest.raises(OutOfRegime):
        colour_tiled(complete_graph(6))


def test_colour_tiled_corpus_class_and_soundness():
    rng = random.Random(0)
    kinds = set()
    done = 0
    for _ in range(300):
        g = random_tiled_graph(rng, max_vertices=8, steps=4)
        f = phi(g)
        if f > 7:
            continue
        psi, cert = colour_tiled(g)
        assert psi.is_total()
        assert is_proper(g, psi)
        if f <= 2:
            assert cert.kind == "no-rainbow"
        elif f <= 5:
            assert cert.kind in ("no-rainbow", "triangle")
        assert_certificate_sound(g, psi, cert)
        kinds.add(cert.kind)
        done += 1
    assert done >= 100
    assert kinds == {"no-rainbow", "triangle", "matching"}


# -- component trees ----------------------------------------------------------


def test_component_tree_single_part():
    g = K5_PLUS_VERTEX
    parts, leftover = k4_components(g)
    assert leftover == () and len(parts) == 1
    psi = colour_component_tree(g, parts)
    assert is_proper(g, psi)
    reds = [e for e in g.edges if psi.get(*e) == RED]
    for q in rainbow_quads(g, psi):
        assert any(set(e) <= set(q) for e in reds)


def test_component_tree_two_parts_red_cover():
    shifted = [(u + 6, v + 6) for u, v in TRIANGLE_CERT_GRAPH.edges]
    c = Graph(13, sorted(TRIANGLE_CERT_GRAPH.edges + tuple(shifted)))
    parts, leftover = k4_components(c)
    assert leftover == () and len(parts) == 2
    psi = colour_component_tree(c, parts)
    assert is_proper(c, psi)
    reds = [e for e in c.edges if psi.get(*e) == RED]
    ends = [v for e in reds for v in e]
    assert len(ends) == len(set(ends))  # red edges form a matching
    rq = rainbow_quads(c, psi)
    assert rq  # these parts genuinely produce rainbow K4 copies
    for q in rq:
        assert any(set(e) <= set(q) for e in reds)
    # the child part's red edge must avoid the vertex shared with its parent
    for a, b in reds:
        if a >= 7:  # fully inside the child copy
            assert 6 not in (a, b)


def test_component_tree_rejects_two_shared_vertices():
    a = sorted(set(pairs([0, 2, 3, 4, 5])) | set(pairs([1, 2, 3, 4, 5])))
    b = sorted(set(pairs([0, 6, 7, 8, 9])) | set(pairs([1, 6, 7, 8, 9])))
    g = Graph(10, sorted(set(a) | set(b)))
    parts, _ = k4_components(g)
    assert len(parts) == 2
    with pytest.raises(StructureUnsupported):
        colour_component_tree(g, parts)


def test_component_tree_rejects_low_phi_member():
    g = Graph(9, sorted(K5_PLUS_VERTEX.edges + ((5, 6), (5, 7), (5, 8),
                                                (6, 7), (6, 8), (7, 8))))
    parts, _ = k4_components(g)
    assert sorted(phi(s) for s, _ in parts) == [0, 4]
    with pytest.raises(StructureUnsupported):
        colour_component_tree(g, parts)


def test_component_tree_rejects_non_tree_meet():
    base = TRIANGLE_CERT_GRAPH.edges
    copies = [base,
              [(u + 6, v + 6) for u, v in base],
              [(u + 12 if u else 0, v + 12 if v else 0) for u, v in base]]
    # copy 0 ends at vertex 6, copy 1 spans 6..12, copy 2 reuses vertex 0
    # and spans 13..18: copies 0 and 1 share 6; copies 0 and 2 share 0.
    # Add a third pairwise meeting to break treeness: make copies 1 and 2
    # share a vertex by pinning copy 2's vertex 6 to copy 1's vertex 12.
    fixed2 = [(12 if u == 18 else u, 12 if v == 18 else v)
              for u, v in copies[2]]
    g = Graph(19, sorted({tuple(sorted(e)) for c in (copies[0], copies[1], fixed2)
                          for e in c}))
    parts, _ = k4_components(g)
    if len(parts) == 3:
        with pytest.raises(StructureUnsupported):
            colour_component_tree(g, parts)


# -- whole-graph assembly ------------------------------------------------------


def test_avoid_k8_low_phi_only():
    g = Graph(12, sorted(pairs(range(4))
                         + [(u + 4, v + 4) for u, v in BOOK.edges]
                         + [(10, 11)]))
    psi = avoid_k8(g)
    assert psi.is_total()
    assert is_proper(g, psi)
    assert rainbow_quads(g, psi) == []
    assert all(psi.get(*e) != RED for e in g.edges)
    # the stray edge's colour is unique
    stray = psi.get(10, 11)
    assert sum(1 for e in g.edges if psi.get(*e) == stray) == 1


def test_avoid_k8_red_covers_rainbows():
    edges = sorted(TRIANGLE_CERT_GRAPH.edges
                   + tuple(pairs(range(7, 11)))
                   + ((11, 12),))
    g = Graph(13, edges)
    psi = avoid_k8(g)
    assert psi.is_total()
    assert is_proper(g, psi)
    reds = [e for e in g.edges if psi.get(*e) == RED]
    ends = [v for e in reds for v in e]
    assert len(ends) == len(set(ends))
    for q in rainbow_quads(g, psi):
        assert any(set(e) <= set(q) for e in reds)


def test_avoid_k8_out_of_regime():
    with pytest.raises(OutOfRegime):
        avoid_k8(complete_graph(6))
    edges = set(pairs(range(4)))
    n = 4
    while n < 16:
        z, w, x, y = n - 2, n - 1, n, n + 1
        edges.update(tuple(sorted(e)) for e in
                     ((x, y), (x, z), (x, w), (y, z), (y, w)))
        n += 2
    with pytest.raises(OutOfRegime):
        avoid_k8(Graph(n, sorted(edges)))


def test_avoid_k8_rejects_entangled_high_parts():
    a = sorted(set(pairs([0, 2, 3, 4, 5])) | set(pairs([1, 2, 3, 4, 5])))
    b = sorted(set(pairs([0, 6, 7, 8, 9])) | set(pairs([1, 6, 7, 8, 9])))
    g = Graph(10, sorted(set(a) | set(b)))
    with pytest.raises(StructureUnsupported):
        avoid_k8(g)


def test_avoid_k8_perturbed_brute_force():
    left = Graph(8, sorted(K5_PLUS_VERTEX.edges + ((6, 7),)))
    right = Graph(8, sorted(pairs(range(5)) + pairs(range(4, 8))))
    inst = PerturbedInstance(n=16, p=0.0, left=left, right=right)
    psi = avoid_k8_perturbed(inst)
    g = inst.graph()
    assert psi.is_total()
    assert is_proper(g, psi)
    assert validate(inst, psi, 8) is None
    for sub in combinations(range(16), 8):
        es = pairs(sub)
        if all(g.has_edge(*e) for e in es):
            assert len({psi.get(*e) for e in es}) < 28


def test_avoid_k8_perturbed_sampled():
    n = 80
    p = n ** -0.45
    for trial in range(5):
        inst = sample_perturbed(n, p, np.random.default_rng([99, trial]))
        psi = avoid_k8_perturbed(inst)
        assert psi.is_total()
        assert is_proper(inst.graph(), psi)
        assert validate(inst, psi, 8) is None


def test_validate_detects_planted_rainbow_k8():
    inst = PerturbedInstance(n=8, p=0.0,
                             left=complete_graph(4), right=complete_graph(4))
    g = inst.graph()
    psi = EdgeColouring(g)
    for u, v in g.edges:
        psi.assign_fresh(u, v)
    assert len({psi.get(*e) for e in pairs(range(8))}) == 28
    # Edge (0, 1) took colour 0 = RED, so the left K4 passes the red-cover
    # check and the right one, a side of the rainbow K8, fails it.
    assert psi.get(0, 1) == RED
    assert validate(inst, psi, 8) == "rainbow K4 without red at (4, 5, 6, 7)"
