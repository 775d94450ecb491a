"""Rainbow-K8-avoiding machinery built on K4-tiled decompositions.

A graph is K4-tiled when every edge lies in a K4 and the K4 copies form a
single edge-overlap component.  Such graphs are graded by

    phi(H) = 8 - 5 v(H) + 2 e(H),

which is 2*gamma + beta for any stretched generating sequence (gamma counts
edges added between existing vertices, beta the vertex-steps).  The grading
caps the damage a proper colouring must tolerate: phi <= 2 admits a
colouring with no rainbow K4 at all, phi <= 5 one whose rainbow K4s all
share a triangle, phi <= 7 one whose rainbow K4s all meet a fixed matching
of size at most three.  Components with phi >= 3 assemble into vertex-tree
collections whose certificate edges are recoloured with one global red, so
that every rainbow K4 of the whole graph carries red; a rainbow K8 in the
perturbed graph would need two vertex-disjoint rainbow K4s (or a rainbow K5
on one side, which the red matching also rules out) and hence cannot exist.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations

from .colouring import EdgeColouring, is_proper
from .errors import OutOfRegime, ParameterError, SearchExhausted, StructureUnsupported
from .graph import DisjointSets, Graph, bits, disjoint_union
from .model import PerturbedInstance

__all__ = [
    "GenStep",
    "GeneratingSequence",
    "CoverCertificate",
    "RED",
    "PHI_CEILING",
    "DENSE_PART_PHI",
    "k4_components",
    "phi",
    "find_stretched_sequence",
    "random_tiled_graph",
    "corpus_graph",
    "colour_tiled",
    "colour_component_tree",
    "avoid_k8",
    "avoid_k8_perturbed",
    "certificate_allowed",
    "certificate_covers",
]

RED = 0
# The certificate classes end at phi = 7; components with phi >= 3 are the
# dense ones that carry red and must meet in a tree.
PHI_CEILING = 7
DENSE_PART_PHI = 3

_SEQUENCE_BUDGET = 400_000
_VERTEX_CAP = 14


def _k(u, v):
    return (u, v) if u < v else (v, u)


def _pairs(vs):
    return [_k(a, b) for a, b in combinations(sorted(vs), 2)]


# -- types ---------------------------------------------------------------


@dataclass(frozen=True)
class GenStep:
    """One growth step; after it the four `quad` vertices induce a new K4.

    standard: two new vertices joined to an existing edge (5 new edges);
    vertex: one new vertex joined to an existing triple spanning >= 1 edge,
    plus that triple's missing pairs; edge: 1..5 new edges completing a K4
    on four existing vertices.
    """

    kind: str                 # "standard" | "vertex" | "edge"
    new_vertices: tuple       # standard (x, y); vertex (x,); edge ()
    anchor: tuple             # standard (z, w); vertex (y, z, w); edge 4 vertices
    added_edges: tuple        # normalized, sorted
    missing_edges: tuple = () # added edges joining two pre-existing vertices

    @property
    def quad(self) -> tuple:
        return tuple(sorted(set(self.new_vertices) | set(self.anchor)))


@dataclass(frozen=True)
class GeneratingSequence:
    """Nested growth from a K4 (or K5) base reaching a K4-tiled graph on
    vertices 0..n-1."""

    base_vertices: tuple
    steps: tuple
    n: int

    @property
    def base_kind(self) -> str:
        return "K5" if len(self.base_vertices) == 5 else "K4"

    @property
    def alpha(self) -> int:
        return sum(1 for s in self.steps if s.kind == "standard")

    @property
    def beta(self) -> int:
        return sum(1 for s in self.steps if s.kind == "vertex")

    @property
    def gamma(self) -> int:
        total = 0
        for s in self.steps:
            if s.kind == "vertex":
                total += len(s.missing_edges)
            elif s.kind == "edge":
                total += len(s.added_edges)
        return total

    def phi_value(self) -> int:
        base = 3 if self.base_kind == "K5" else 0
        return base + 2 * self.gamma + self.beta

    def all_edges(self) -> list:
        out = list(_pairs(self.base_vertices))
        for s in self.steps:
            out.extend(s.added_edges)
        return sorted(set(out))

    def graph(self) -> Graph:
        return Graph(self.n, self.all_edges())


@dataclass(frozen=True)
class CoverCertificate:
    """How the rainbow K4s of a colouring are covered.

    kind "no-rainbow": there are none; "triangle": all contain `triangle`;
    "matching": all contain an edge of `matching` (<= 3 edges).
    """

    kind: str
    triangle: tuple | None = None
    matching: tuple | None = None

    RANK = {"no-rainbow": 0, "triangle": 1, "matching": 2}

    @property
    def rank(self) -> int:
        return self.RANK[self.kind]


def certificate_covers(cert: CoverCertificate, quads) -> bool:
    """Does cert cover every K4 vertex set in quads?  The independent check
    of ``colour_tiled``'s certificate against a direct rainbow-K4 scan."""
    if cert.kind == "no-rainbow":
        return not quads
    if cert.kind == "triangle":
        t = set(cert.triangle)
        return all(t <= set(q) for q in quads)
    matching = cert.matching or ()
    if len(matching) > 3:
        return False
    return all(
        any(u in q and v in q for u, v in matching) for q in quads
    )


# -- decomposition -------------------------------------------------------


def k4_components(g: Graph):
    """Maximal K4-tiled subgraphs and the edges lying in no K4.

    Returns ([(subgraph, back_map), ...], leftover_edges); two K4 copies
    belong to the same component iff they are linked by a chain of copies
    sharing edges, so components are pairwise edge-disjoint.
    """
    quads = g.cliques(4)
    sets = DisjointSets(range(len(quads)))
    owner: dict = {}
    for i, q in enumerate(quads):
        for e in _pairs(q):
            if e in owner:
                sets.union(owner[e], i)
            else:
                owner[e] = i
    groups = sets.groups()

    comps = []
    covered = set()
    for root in sorted(groups, key=lambda r: quads[groups[r][0]]):
        edges = set()
        for i in groups[root]:
            edges.update(_pairs(quads[i]))
        covered.update(edges)
        back = sorted({v for e in edges for v in e})
        pos = {v: i for i, v in enumerate(back)}
        comp_edges = sorted((pos[u], pos[v]) for u, v in edges)
        comps.append((Graph(len(back), comp_edges), back))
    leftover = tuple(e for e in g.edges if e not in covered)
    return comps, leftover


def _deficiency(v: int, e: int) -> int:
    return 8 - 5 * v + 2 * e


def phi(h: Graph) -> int:
    """8 - 5 v + 2 e over non-isolated vertices; equals 2*gamma + beta for
    stretched sequences."""
    v = sum(1 for u in range(h.n) if h.adj[u]) if h.m else h.n
    return _deficiency(v, h.m)


# -- stretched sequence search --------------------------------------------


class _QuadTable:
    """Per-graph tables making step enumeration a single pass over K4 copies.

    Every growth step completes one K4 copy of h whose vertices are partly
    present: two present vertices spanning a current edge give a standard
    step, three a vertex-step, four an edge-step.  For each copy we store its
    vertex bitmask, its six edge ids (`quad_eids`, in the order of its
    vertex pairs) and their bitmask; a copy is applicable from `mask` iff it
    has both a current edge and a missing edge.  The same masks answer
    whether h is K4-tiled and list its K5 copies.  The sequence search
    builds one table per graph and returns it with the sequence, so
    `colour_tiled`'s replays (which colour the table's h) and its
    certificates' rainbow scans read the same table, and the K4 copies are
    enumerated once per graph.
    """

    def __init__(self, h: Graph):
        self.h = h
        self.full = (1 << h.m) - 1
        n = h.n
        # eid[u * n + v]: id of edge (u, v), u < v; a dict, so isolated
        # vertices cost nothing
        self.eid = eid = {u * n + v: i for i, (u, v) in enumerate(h.edges)}
        self.quads = h.cliques(4)
        self.vmask = [(1 << a) | (1 << b) | (1 << c) | (1 << d)
                      for a, b, c, d in self.quads]
        self.quad_eids = [
            (eid[a * n + b], eid[a * n + c], eid[a * n + d],
             eid[b * n + c], eid[b * n + d], eid[c * n + d])
            for a, b, c, d in self.quads]
        self.emask = [(1 << i) | (1 << j) | (1 << k) | (1 << x) | (1 << y) | (1 << z)
                      for i, j, k, x, y, z in self.quad_eids]

    def edge_mask(self, vs) -> int:
        """Bitmask of the edge ids of the clique on the sorted vertices vs."""
        eid, n = self.eid, self.h.n
        em = 0
        for u, v in combinations(vs, 2):
            em |= 1 << eid[u * n + v]
        return em

    def is_tiled(self) -> bool:
        """Every edge in a K4, and all K4 copies in one edge-overlap
        component: grow the first copy's edges by every copy meeting them
        until nothing joins, then compare with all of h's edges."""
        if not self.emask:  # edgeless or K4-free
            return False
        reach = self.emask[0]
        grown = True
        while grown:
            grown = False
            for em in self.emask:
                if em & reach and em & ~reach:
                    reach |= em
                    grown = True
        return reach == self.full

    def k5s(self) -> list:
        """h's K5 copies in lexicographic order: each quad (a, b, c, d)
        extended by the common neighbours above d."""
        adj = self.h.adj
        out = []
        for a, b, c, d in self.quads:
            for x in bits((adj[a] & adj[b] & adj[c] & adj[d]) >> (d + 1)):
                out.append((a, b, c, d, d + 1 + x))
        return out

    def materialize(self, mask: int, vset: int, qi: int) -> GenStep:
        q = self.quads[qi]
        edges = self.h.edges
        # the copy's vertex pairs in lexicographic order, so `added` is sorted
        added = tuple(edges[i] for i in self.quad_eids[qi] if not mask >> i & 1)
        inside = tuple(x for x in q if (vset >> x) & 1)
        outside = tuple(x for x in q if not (vset >> x) & 1)
        if len(outside) == 2:
            return GenStep("standard", outside, inside, added)
        if len(outside) == 1:
            x = outside[0]
            missing = tuple(e for e in added if x not in e)
            return GenStep("vertex", outside, inside, added, missing)
        return GenStep("edge", (), q, added, added)


def find_stretched_sequence(h: Graph, node_budget: int = _SEQUENCE_BUDGET) -> GeneratingSequence:
    """A generating sequence for h minimising gamma, then maximising length.

    Base is a K5 copy when h contains one, else a K4 copy; all base copies
    compete.  Since v and e are fixed, gamma = e - 3v + const + alpha, so the
    search minimises the number of standard steps, then maximises steps.
    """
    return _search(h, node_budget)[1]


def _search(h: Graph, node_budget: int) -> tuple[_QuadTable, GeneratingSequence]:
    """h's K4 table and `find_stretched_sequence(h)`.  A graph above the
    vertex cap is refused before its K4 copies are listed.

    Each node makes one pass over the K4 copies and keeps the applicable
    one minimising (alpha, -steps, rank, copy index), rank 0, 1 or 2 for a
    standard, vertex- or edge-step (2, 3 or 4 present vertices): ties go to
    standard steps, then vertex-steps, then edge-steps, each in copy order.
    Each visit to an unmemoised or dead edge mask counts one node against
    the budget: a dead mask memoises as None, which reads as a miss, so it
    is expanded again each time it is reached.

    The recursion in `rec` stays far below Python's limit: every step adds
    at least one edge, so it nests at most m deep, and the cap of
    _VERTEX_CAP = 14 vertices bounds m by 91.
    """
    if sum(1 for u in range(h.n) if h.adj[u]) > _VERTEX_CAP:
        raise ParameterError(f"stretched-sequence search capped at {_VERTEX_CAP} vertices")
    tab = _QuadTable(h)
    if not tab.is_tiled():
        raise ParameterError("graph is not K4-tiled")
    k5s = tab.k5s()
    # (vertices, edge mask, vertex mask) of each base copy
    bases = ([(q, tab.edge_mask(q), sum(1 << v for v in q)) for q in k5s] if k5s
             else list(zip(tab.quads, tab.emask, tab.vmask)))
    full = tab.full
    table = list(zip(range(len(tab.quads)), tab.emask, tab.vmask))
    memo: dict = {full: (0, 0)}
    nodes = 0

    def rec(mask: int, vset: int):
        """(alpha, -steps, rank, qi, next mask) of the best completion from
        mask, None when there is none; (0, 0) at the full mask.  The loop
        reads the memo itself and calls rec only on a miss."""
        nonlocal nodes
        got = memo.get(mask)
        if got is not None:
            return got
        nodes += 1
        if nodes > node_budget:
            raise SearchExhausted(
                f"stretched-sequence search budget exhausted on a graph with "
                f"{h.n} vertices, {h.m} edges")
        best = None
        for qi, em, vm in table:
            have = em & mask
            if not have or have == em:
                continue
            nm = mask | em
            sub = memo.get(nm) or rec(nm, vset | vm)
            if sub is None:
                continue
            rank = (vm & vset).bit_count() - 2  # present vertices: 2, 3 or 4
            cand = (sub[0] + (rank == 0), sub[1] - 1, rank, qi, nm)
            if best is None or cand < best:
                best = cand
        memo[mask] = best
        return best

    best_overall = None
    for base, mask, vset in bases:
        res = rec(mask, vset)
        if res is None:
            continue
        key = (res[0], res[1], base)
        if best_overall is None or key < best_overall[0]:
            best_overall = (key, base, mask, vset)
    if best_overall is None:
        raise SearchExhausted("no generating sequence found (graph not reachable from any base)")

    _, base, mask, vset = best_overall
    steps = []
    while mask != full:
        _, _, _, qi, nm = memo[mask]
        steps.append(tab.materialize(mask, vset, qi))
        vset |= tab.vmask[qi]
        mask = nm
    return tab, GeneratingSequence(tuple(base), tuple(steps), h.n)


def _index_draws(rng: random.Random):
    """`below(m)`, a uniform index in range(m), and `sample(n, k)`, k <= 5
    distinct indices in range(n), reading `rng.getrandbits` directly, word
    for word as CPython's `Random.choice` and `Random.sample(range(n), k)`
    read it, so rng sees the same calls as through those wrappers.  The
    third helper, `spend(n, k, times)`, reads the words of `times` such
    `sample(n, k)` calls for n <= 21 and returns nothing.

    `below` is `Random._randbelow_with_getrandbits`: it draws
    m.bit_length() bits until the value is below m.  `sample` follows
    `Random.sample` for k <= 5: while n <= 21 it swaps picks out of a pool,
    above that it redraws repeats.  A pool pick's words depend only on the
    pool's size, never on its contents, so `spend` keeps no pool: pick i
    of each call redraws m.bit_length() bits until they fall below
    m = n - i.
    """
    getrandbits = rng.getrandbits

    def below(m):
        width = m.bit_length()
        r = getrandbits(width)
        while r >= m:
            r = getrandbits(width)
        return r

    def sample(n, k):
        out = []
        if n <= 21:
            pool = list(range(n))
            for i in range(k):
                j = below(n - i)
                out.append(pool[j])
                pool[j] = pool[n - i - 1]
        else:
            for _ in range(k):
                j = below(n)
                while j in out:
                    j = below(n)
                out.append(j)
        return out

    def spend(n, k, times):
        for m, width in [(m, m.bit_length()) for m in range(n, n - k, -1)] * times:
            while getrandbits(width) >= m:
                pass

    return below, sample, spend


def _tiled_draw(rng: random.Random, max_vertices: int, steps: int) -> tuple[int, set]:
    """Vertex count and edge set of one random K4-tiled draw: random growth
    steps applied to K4.

    Every step's new K4 shares an edge with the current graph, so the result
    is K4-tiled by construction, and every vertex lies in a K4.  Adjacency
    bitmasks kept beside the edge set answer the steps' edge tests.  Each
    choice of a step kind or an anchor edge is `seq[below(len(seq))]`, as
    `Random.choice(seq)` is, and each vertex tuple a `sample` of range(n),
    so the rng stream is the one the stdlib wrappers drew.  An edge step on
    a complete graph cannot succeed, as each 4-set spans a K4 already: on
    at most 21 vertices it only `spend`s the words of its 30 attempts.
    """
    below, sample, spend = _index_draws(rng)
    edges = set(_pairs(range(4)))
    adj = [0b1110, 0b1101, 0b1011, 0b0111] + [0] * max_vertices
    n = 4

    def add_clique(vs):
        edges.update(_pairs(vs))
        mask = sum(1 << v for v in vs)
        for v in vs:
            adj[v] |= mask ^ (1 << v)

    for _ in range(steps):
        kinds = ["vertex", "edge"]
        if n + 2 <= max_vertices:
            kinds.append("standard")
        if n + 1 > max_vertices:
            kinds.remove("vertex")
        kind = kinds[below(len(kinds))]
        if kind == "standard":
            anchors = sorted(edges)
            z, w = anchors[below(len(anchors))]
            x, y = n, n + 1
            add_clique((x, y, z, w))  # (z, w) is already an edge
            n += 2
        elif kind == "vertex":
            while True:
                y, z, w = sample(n, 3)
                if (adj[y] | adj[z]) >> w & 1 or adj[y] >> z & 1:
                    break
            add_clique((n, y, z, w))
            n += 1
        elif len(edges) == n * (n - 1) // 2 and n <= 21:
            spend(n, 4, 30)  # on a complete graph each of the 30 quads is a K4
        else:
            for _attempt in range(30):
                quad = sample(n, 4)
                a, b, c, d = quad
                present = ((adj[a] & (1 << b | 1 << c | 1 << d)).bit_count()
                           + (adj[b] & (1 << c | 1 << d)).bit_count()
                           + (adj[c] >> d & 1))
                if 1 <= present <= 5:
                    add_clique(quad)
                    break
    return n, edges


def random_tiled_graph(rng: random.Random, max_vertices: int = 12,
                       steps: int = 6) -> Graph:
    """A random K4-tiled graph built by applying `steps` random growth steps
    to K4, on at most `max_vertices` vertices.

    The draw reads generator words exactly as `Random.choice` and
    `Random.sample` would (see `_index_draws`), so a seeded rng gives the
    same graphs, and is left in the same state, as when the steps called
    those wrappers; golden draw hashes pin both.
    """
    n, edges = _tiled_draw(rng, max_vertices, steps)
    return Graph(n, edges)


def corpus_graph(seed: int, index: int) -> tuple[Graph, int]:
    """Graph ``index`` of the seed-``seed`` tiled corpus and the number of
    draws it took.

    Mixed step counts diversify the deficiency classes; draws with phi
    above PHI_CEILING fall outside the certificate classes and are redrawn.
    phi is decided on the raw draw, where every vertex lies in a K4 and so
    counts, and only the kept draw becomes a `Graph`.
    """
    rng = random.Random(f"corpus:{seed}:{index}")
    draws = 0
    while True:
        draws += 1
        n, edges = _tiled_draw(rng, 12, rng.randint(1, 6))
        if _deficiency(n, len(edges)) <= PHI_CEILING:
            return Graph(n, edges), draws


# -- partial colouring -----------------------------------------------------


def _k4_matchings(vs):
    a, b, c, d = sorted(vs)
    return (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))


def _partial_colouring(h: Graph, seq: GeneratingSequence, *, suppress=frozenset(),
                       pair_first_edge_step: bool = False) -> EdgeColouring:
    """Replay the sequence, colouring so each new K4 repeats a colour; the
    colouring is of h, the graph seq generates.

    Base K4: one matching of size two shares a colour (K5 base: the cyclic
    one-factorisation, five colours of two edges each).  Standard steps pair
    two opposite new edges under a new colour.  Vertex-steps reuse a triangle
    colour on the opposite new edge when proper, else pair an uncoloured
    triangle edge (possibly the just-added missing edge) with the opposite
    new edge under a new colour, else colour nothing (the triangle is then
    problematic).  Steps in `suppress` colour nothing; with
    `pair_first_edge_step` the first 1-edge-step pairs its new edge with the
    opposite one, which earlier steps keep uncoloured when a choice exists.

    New colours are 0, 1, 2, ... in order of use.  They are decided on a
    local edge -> colour dict and per-vertex colour sets (a reuse is proper
    when no other coloured edge at either end of the edge has the colour)
    and written with one `assign_many`.
    """
    col: dict = {}
    at = defaultdict(set)  # at[x]: the colours on x's coloured edges
    fresh = 0

    def paint(colour, *edges):
        for e in edges:
            col[e] = colour
            at[e[0]].add(colour)
            at[e[1]].add(colour)

    def paint_new(*edges):
        nonlocal fresh
        paint(fresh, *edges)
        fresh += 1

    avoid: set = set()
    target_idx = None
    if pair_first_edge_step:
        for i, st in enumerate(seq.steps):
            if st.kind == "edge" and len(st.added_edges) == 1:
                target_idx = i
                xy = st.added_edges[0]
                zw = _k(*(set(st.quad) - set(xy)))
                avoid = {zw}
                break

    base = tuple(sorted(seq.base_vertices))
    if seq.base_kind == "K4":
        pair = next((m for m in _k4_matchings(base)
                     if not (set(m) & avoid)), _k4_matchings(base)[0])
        paint_new(*pair)
    else:
        for i in range(5):
            paint_new(_k(base[(i + 1) % 5], base[(i + 4) % 5]),
                      _k(base[(i + 2) % 5], base[(i + 3) % 5]))

    for idx, st in enumerate(seq.steps):
        if idx in suppress:
            continue
        if st.kind == "standard":
            x, y = st.new_vertices
            z, w = st.anchor
            options = ((_k(x, z), _k(y, w)), (_k(x, w), _k(y, z)))
            paint_new(*next((p for p in options if not (set(p) & avoid)), options[0]))
        elif st.kind == "vertex":
            x = st.new_vertices[0]
            a, b, c = sorted(st.anchor)
            # the triangle's edges in order, each with its opposite new edge
            tri = (((a, b), _k(x, c)), ((a, c), _k(x, b)), ((b, c), _k(x, a)))
            for e, opp in tri:  # reuse an existing triangle colour
                colour = col.get(e)
                if (colour is not None and opp not in avoid
                        and colour not in at[opp[0]] and colour not in at[opp[1]]):
                    paint(colour, opp)
                    break
            else:
                for e, opp in tri:  # pair an uncoloured triangle edge
                    if e not in col and e not in avoid and opp not in avoid:
                        paint_new(e, opp)
                        break
        elif idx == target_idx:  # edge steps colour nothing but this pairing
            xy = st.added_edges[0]
            zw = _k(*(set(st.quad) - set(xy)))
            if zw not in col:
                paint_new(xy, zw)
    psi = EdgeColouring(h)
    psi.assign_many(list(col), list(col.values()))
    return psi


# -- certificates -----------------------------------------------------------


def _cover_certificate(tab: _QuadTable, psi: EdgeColouring) -> CoverCertificate | None:
    """Smallest-kind certificate covering all rainbow K4s of psi, a
    colouring of tab.h, or None.

    psi must be total: a partly coloured K4 has no six colours to compare.
    The rainbow K4s are the table's K4 copies, in clique order, whose six
    edge ids read six distinct colours in one `colours` call over h."""
    if not psi.is_total():
        raise ParameterError("cover_certificate needs a total colouring")
    cols = psi.colours(tab.h.edges)
    rain = [q for q, (a, b, c, d, e, f) in zip(tab.quads, tab.quad_eids)
            if len({cols[a], cols[b], cols[c], cols[d], cols[e], cols[f]}) == 6]
    if not rain:
        return CoverCertificate("no-rainbow")
    first = set(rain[0])
    for tri in combinations(sorted(first), 3):
        if all(set(tri) <= set(q) for q in rain):
            return CoverCertificate("triangle", triangle=tri)
    cand = sorted({e for q in rain for e in _pairs(q)})
    for size in (1, 2, 3):
        for m in combinations(cand, size):
            vs = [v for e in m for v in e]
            if len(vs) != len(set(vs)):
                continue
            if all(any(set(e) <= set(q) for e in m) for q in rain):
                return CoverCertificate("matching", matching=m)
    return None


def certificate_allowed(cert: CoverCertificate | None, f: int) -> bool:
    """Is cert of a kind the deficiency class phi = f admits?"""
    if cert is None:
        return False
    if f <= 2:
        return cert.rank == 0
    if f <= 5:
        return cert.rank <= 1
    return cert.rank <= 2


def _colour_variants(seq: GeneratingSequence):
    """Replay configurations to try, mirroring the case analysis over gamma."""
    yield {}
    multi = frozenset(i for i, st in enumerate(seq.steps)
                      if st.kind == "vertex" and len(st.missing_edges) >= 2)
    if multi:
        yield {"suppress": multi}
    first_1edge = next((i for i, st in enumerate(seq.steps)
                        if st.kind == "edge" and len(st.added_edges) == 1), None)
    if first_1edge is not None:
        yield {"pair_first_edge_step": True}
        st = seq.steps[first_1edge]
        zw = set(st.quad) - set(st.added_edges[0])
        counts: Counter = Counter()
        for i, s in enumerate(seq.steps[:first_1edge]):
            if s.kind == "vertex":
                counts[tuple(sorted(s.anchor))] += 1
        tris = {t for t, c in counts.items() if c >= 2 and zw <= set(t)}
        if tris:
            sup = frozenset(i for i, s in enumerate(seq.steps[:first_1edge])
                            if s.kind == "vertex" and tuple(sorted(s.anchor)) in tris)
            yield {"pair_first_edge_step": True, "suppress": sup}
            if multi:
                yield {"pair_first_edge_step": True, "suppress": sup | multi}


def colour_tiled(h: Graph):
    """Proper colouring of a K4-tiled graph plus a phi-class certificate.

    phi <= 2 yields no-rainbow, phi in [3,5] a shared triangle, phi in [6,7]
    a matching of <= 3 edges meeting every rainbow K4 (stronger kinds always
    accepted).  Replay variants are tried in order and the first whose
    a-posteriori certificate fits the class is returned.  One K4 table of h
    serves the sequence search, every replay (each colours h itself, not a
    graph rebuilt from the sequence) and every certificate's rainbow scan.
    """
    f = phi(h)
    if f > PHI_CEILING:
        raise OutOfRegime(f"phi = {f} > {PHI_CEILING}", offending=h)
    tab, seq = _search(h, _SEQUENCE_BUDGET)
    for cfg in _colour_variants(seq):
        psi = _partial_colouring(h, seq, **cfg)
        psi.fill_fresh()
        cert = _cover_certificate(tab, psi)
        if certificate_allowed(cert, f):
            return psi, cert
    raise SearchExhausted(
        f"no replay variant achieved the phi = {f} certificate class")


# -- assembly ---------------------------------------------------------------


def _lift(edge, back):
    return _k(back[edge[0]], back[edge[1]])


def _assign_renumbered(psi: EdgeColouring, edges, colours, keep_red: bool = False):
    """Colour `edges` with `colours` renumbered to fresh ids above RED, in
    order of first appearance; with keep_red, RED stays RED."""
    fresh = max(psi.next_colour, RED + 1)
    remap: dict = {RED: RED} if keep_red else {}
    out = []
    for col in colours:
        if col not in remap:
            remap[col] = fresh
            fresh += 1
        out.append(remap[col])
    psi.assign_many(edges, out)


def colour_component_tree(c: Graph, parts) -> EdgeColouring:
    """Colour a connected union of K4-components, phi >= 3 each, so every
    rainbow K4 carries the shared colour RED.

    parts: [(subgraph, back_map-into-c), ...].  Components must pairwise
    share at most one vertex and meet in a tree; the part maximising phi is
    the root (certificate edges recoloured red), every other part needs
    phi in [3,5] and contributes one red edge of its certificate triangle
    avoiding the vertex shared with its parent.
    """
    k = len(parts)
    share: dict = {}
    for i, j in combinations(range(k), 2):
        common = set(parts[i][1]) & set(parts[j][1])
        if len(common) > 1:
            raise StructureUnsupported(
                "two K4-components share more than one vertex",
                offending=tuple(sorted(common)))
        if common:
            share[(i, j)] = common.pop()
    if len(share) != k - 1:
        raise StructureUnsupported(
            "component meet graph is not a tree", offending=tuple(share))

    phis = [phi(sub) for sub, _ in parts]
    root = max(range(k), key=lambda i: (phis[i], -i))
    for i in range(k):
        lo, hi = (DENSE_PART_PHI, PHI_CEILING) if i == root else (DENSE_PART_PHI, 5)
        if not lo <= phis[i] <= hi:
            raise StructureUnsupported(
                f"component phi = {phis[i]} outside [{lo}, {hi}] for its role",
                offending=parts[i][0])

    # orient the tree away from the root; mark each part's parent-shared vertex
    adj: dict = {i: [] for i in range(k)}
    for (i, j), v in share.items():
        adj[i].append((j, v))
        adj[j].append((i, v))
    parent_vertex = {root: None}
    order = [root]
    queue = [root]
    while queue:
        i = queue.pop(0)
        for j, v in adj[i]:
            if j not in parent_vertex:
                parent_vertex[j] = v
                order.append(j)
                queue.append(j)
    if len(order) != k:
        raise StructureUnsupported("component meet graph is not connected",
                                   offending=tuple(order))

    psi = EdgeColouring(c)
    red_edges = []
    for i in order:
        sub, back = parts[i]
        local_psi, cert = colour_tiled(sub)
        _assign_renumbered(psi, [_lift(e, back) for e in sub.edges],
                           local_psi.colours(sub.edges))
        if i == root:
            if cert.kind == "triangle":
                red_edges.append(_lift(_pairs(cert.triangle)[0], back))
            elif cert.kind == "matching":
                red_edges.extend(_lift(e, back) for e in cert.matching)
        else:
            if cert.kind == "no-rainbow":
                continue
            tri_global = sorted(back[v] for v in cert.triangle)
            ends = [v for v in tri_global if v != parent_vertex[i]][:2]
            red_edges.append(_k(*ends))

    seen = set()
    for a, b in red_edges:
        if a in seen or b in seen:
            raise StructureUnsupported("red certificate edges do not form a matching",
                                       offending=tuple(red_edges))
        seen.update((a, b))
        psi.assign(a, b, RED)
    if not is_proper(c, psi):
        raise RuntimeError("internal: tree assembly produced an improper colouring")
    return psi


def avoid_k8(r: Graph) -> EdgeColouring:
    """Proper colouring of r where every rainbow K4 carries RED.

    K4-components with phi <= 2 get rainbow-free colourings on private
    palettes; those with phi >= 3 are grouped by shared vertices into tree
    assemblies coloured by colour_component_tree (one global red); edges in
    no K4 get fresh unique colours.
    """
    parts, _ = k4_components(r)
    for sub, back in parts:
        if phi(sub) > PHI_CEILING:
            raise OutOfRegime(f"K4-component with phi = {phi(sub)} > {PHI_CEILING}",
                              offending=(sub, back))
        if sub.n > _VERTEX_CAP:
            raise OutOfRegime(
                f"K4-component with {sub.n} > {_VERTEX_CAP} vertices",
                offending=(sub, back))

    high = [i for i in range(len(parts)) if phi(parts[i][0]) >= DENSE_PART_PHI]
    for a, b in combinations(high, 2):
        common = set(parts[a][1]) & set(parts[b][1])
        if len(common) > 1:
            raise StructureUnsupported(
                "two phi >= 3 components share more than one vertex",
                offending=tuple(sorted(common)))

    # group phi >= 3 components meeting at vertices
    sets = DisjointSets(high)
    for a, b in combinations(high, 2):
        if set(parts[a][1]) & set(parts[b][1]):
            sets.union(a, b)
    groups = sets.groups()

    psi = EdgeColouring(r)
    for i in range(len(parts)):
        if i in high:
            continue
        sub, back = parts[i]
        local_psi, cert = colour_tiled(sub)
        _assign_renumbered(psi, [_lift(e, back) for e in sub.edges],
                           local_psi.colours(sub.edges))

    for members in (groups[g] for g in sorted(groups)):
        union_edges = sorted({e for i in members
                              for e in (_lift(ed, parts[i][1]) for ed in parts[i][0].edges)})
        c = Graph(r.n, union_edges)
        tree_psi = colour_component_tree(c, [parts[i] for i in members])
        _assign_renumbered(psi, union_edges, tree_psi.colours(union_edges),
                           keep_red=True)

    # only the edges in no K4 are left
    psi.fill_fresh(max(psi.next_colour, RED + 1))
    return psi


def avoid_k8_perturbed(instance: PerturbedInstance) -> EdgeColouring:
    """Proper colouring of the perturbed graph with no rainbow K8.

    The random halves are coloured by avoid_k8 (vertex-disjoint, so one
    global red stays a matching); seed edges get fresh unique colours.  A
    rainbow K8 needs four vertices on some side; a rainbow side-K5 is ruled
    out because its five rainbow K4s would need two red matching edges, and
    a 4+4 split repeats red across the two side-K4s.
    """
    rg = disjoint_union((instance.left, instance.right))
    base = avoid_k8(rg)
    g = instance.graph()
    psi = EdgeColouring(g)
    psi.assign_many(rg.edges, base.colours(rg.edges))
    psi.fill_fresh()
    return psi
