"""Undirected simple graphs with bitset adjacency, named constructors,
subgraph enumeration, automorphism counts and exact density functionals.

Vertex ids are dense integers 0..n-1.  Adjacency is one Python int per
vertex used as a bitset, so neighbourhood intersections are single `&`
operations and popcounts come from int.bit_count().

Fixed labelling of the named constructions (tests and colouring tables
rely on these):

  Clique(r)               0..r-1
  CompleteBipartite(a,b)  first part 0..a-1, second part a..a+b-1
  Path(k)                 path 0-1-...-(k-1), k vertices
  Star(k)                 centre 0, leaves 1..k
  Join(L, R)              L keeps its ids, R shifted by v(L); all cross edges added
  HatK(a, b)              Join(Clique(a), b isolated vertices)
  R7                      u1,u2,u3 -> 0,1,2 and w1,w2,w3,w4 -> 3,4,5,6
  T(k)                    hub 0; i-th triangle (1-based) on {0, 2i-1, 2i}
  KDelta(s, t)            centre 0, spoke leaves 1..s, pendant j of spoke i
                          at index s + (i-1)*t + j (1-based i, j); each pendant
                          is adjacent to the centre and to its spoke leaf
  DisjointUnion(list)     blocks shifted left-to-right
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat

from .errors import ParameterError

__all__ = [
    "Graph",
    "DensityReport",
    "parse_graph_spec",
    "clique",
    "complete_bipartite",
    "path_graph",
    "star",
    "join",
    "hat_k",
    "r7",
    "t_graph",
    "k_delta",
    "disjoint_union",
    "empty_graph",
    "enumerate_copies",
    "aut_order",
    "densities",
    "edge_counts_all_subsets",
    "components",
    "DisjointSets",
    "bits",
    "graph_to_json",
    "graph_from_json",
]


def bits(mask: int):
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _check_size(n: int) -> None:
    """A vertex count is a list length, so it must fit an index; checked
    before anything of that size is built."""
    if n > sys.maxsize:
        raise ParameterError(f"vertex count must be at most {sys.maxsize}, got {n}")


class Graph:
    """Immutable undirected simple graph.

    A graph built by `join` records its parts: `split` is the left part's
    size and `left`/`right` are the parts, so every pair u < split <= v is
    an edge.  Any other graph has `split` 0 and no parts.
    """

    __slots__ = ("n", "adj", "edges", "m", "split", "left", "right", "_edge_index")

    def __init__(self, n: int, edges):
        if n < 0:
            raise ParameterError(f"vertex count must be >= 0, got {n}")
        _check_size(n)
        adj = [0] * n
        norm = []
        seen = set()
        for u, v in edges:
            if u == v:
                raise ParameterError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) out of range for n={n}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            norm.append((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        norm.sort()
        self.n = n
        self.adj = tuple(adj)
        self.edges = tuple(norm)
        self.m = len(norm)
        self.split, self.left, self.right = 0, None, None
        self._edge_index = None

    # -- basic queries ----------------------------------------------------

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and 0 <= u < self.n and 0 <= v < self.n and bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbours(self, v: int):
        return bits(self.adj[v])

    def edge_id(self, u: int, v: int) -> int:
        index = self._edge_index
        if index is None:  # built on first use: only small graphs need ids
            index = self._edge_index = {e: i for i, e in enumerate(self.edges)}
        return index[(u, v) if u < v else (v, u)]

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    # -- derived graphs ---------------------------------------------------

    def subgraph(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph. Returns (graph, back_map) with back_map[i] the
        original id of new vertex i; vertices are relabelled in sorted order."""
        vs = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(vs)}
        sub_edges = [
            (pos[u], pos[v])
            for u, v in combinations(vs, 2)
            if self.has_edge(u, v)
        ]
        return Graph(len(vs), sub_edges), vs

    def triangles(self) -> list[tuple[int, int, int]]:
        """All triangles as sorted vertex triples: `cliques(3)`."""
        return self.cliques(3)

    def iter_cliques(self, r: int):
        """Yield every r-clique as a sorted vertex tuple, in lexicographic
        order.  A caller that only asks whether a clique exists stops at the
        first with `next(..., None)`.  `cliques` lists through this search
        for r = 1, r >= 5 and on joins; its own loops over the edges list
        r = 2..4 on any other graph.

        The search is rooted at each clique's least vertex, and only at
        vertices of degree at least r - 1, the only ones an r-clique can
        hold: on a sparse graph it pays a degree test for each vertex and a
        search for each vertex with enough neighbours, and skipping a root
        that yields nothing keeps the order."""
        if r < 1:
            raise ParameterError("clique order must be >= 1")
        if r > self.n:  # also keeps the stack below as small as the graph
            return
        adj = self.adj
        last = r - 1
        # cur holds the clique so far, its root first; cands[d] is the
        # bitset of vertices still to try at depth d, lowest first: the
        # common neighbours of cur[:d] above cur[d - 1].
        cands = [0] * r
        for root, row in enumerate(adj):
            if row.bit_count() < last:
                continue
            if not last:
                yield (root,)
                continue
            cur = [root]
            cands[1] = (row >> (root + 1)) << (root + 1)
            d = 1
            while d:
                cand = cands[d]
                if not cand:
                    d -= 1
                    cur.pop()
                    continue
                low = cand & -cand
                cand ^= low
                cands[d] = cand
                v = low.bit_length() - 1
                if d == last:
                    yield (*cur, v)
                else:
                    cur.append(v)
                    d += 1
                    cands[d] = cand & adj[v]

    def cliques(self, r: int) -> list[tuple[int, ...]]:
        """All r-cliques as sorted vertex tuples, in lexicographic order.

        On a graph that is not a join, r = 2 lists the edge tuple, and r = 3
        and 4 are listed from each clique's lowest edge (u, v): the common
        neighbours w > v of u and v, and for r = 4 the common neighbours of
        u, v and w above w, one bitset `&` per level.  Every other r, and
        every join (`left` is set), whose edge tuple is never built here,
        is `iter_cliques`.
        """
        if self.left is not None or not 2 <= r <= 4:
            return list(self.iter_cliques(r))
        if r == 2:
            return list(self.edges)
        adj = self.adj
        out = []
        add = out.append
        for u, v in self.edges:
            common = adj[u] & adj[v]
            common >>= v + 1  # bit i is vertex v + 1 + i
            while common:
                low = common & -common
                common ^= low
                w = v + low.bit_length()
                if r == 3:
                    add((u, v, w))
                    continue
                rest = common & (adj[w] >> (v + 1))  # common is above w now
                while rest:
                    low = rest & -rest
                    rest ^= low
                    add((u, v, w, v + low.bit_length()))
        return out


# The one-vertex graph that every isolated vertex's component shares (a
# Graph is immutable).
_K1 = Graph(1, ())


@dataclass(frozen=True)
class DensityReport:
    m1: Fraction
    m2: Fraction | None
    m_bip2: Fraction | None


# -- constructors ----------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n, [])


def clique(r: int) -> Graph:
    if r < 1:
        raise ParameterError(f"Clique order must be >= 1, got {r}")
    _check_size(r)
    return Graph(r, list(combinations(range(r), 2)))


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ParameterError("CompleteBipartite parts must be >= 0")
    _check_size(a + b)
    return Graph(a + b, [(u, a + w) for u in range(a) for w in range(b)])


def path_graph(k: int) -> Graph:
    if k < 1:
        raise ParameterError(f"Path needs >= 1 vertex, got {k}")
    _check_size(k)
    return Graph(k, [(i, i + 1) for i in range(k - 1)])


def star(k: int) -> Graph:
    if k < 0:
        raise ParameterError("Star leaf count must be >= 0")
    _check_size(k + 1)
    return Graph(k + 1, [(0, i) for i in range(1, k + 1)])


def join(left: Graph, right: Graph) -> Graph:
    """Left keeps its ids, right is shifted by v(left), and every cross
    edge is added.

    The result records `split` = v(left) and both parts, and counts its
    edges: m = e(left) + e(right) + v(left) * v(right).  Its edge tuple,
    which a dense join would spend one Python tuple per cross edge on, is
    built only when `edges` is first read.
    """
    off, n = left.n, left.n + right.n
    left_mask = (1 << off) - 1
    right_mask = ((1 << n) - 1) ^ left_mask
    adj = [row | right_mask for row in left.adj]
    adj += [row << off | left_mask for row in right.adj]
    g = _JoinGraph.__new__(_JoinGraph)
    g.n, g.adj, g.m = n, tuple(adj), left.m + right.m + off * right.n
    g.split, g.left, g.right = off, left, right
    g._edge_index = g._edges = None
    return g


class _JoinGraph(Graph):
    """What `join` returns: a Graph whose `edges` is a property that builds
    the tuple on first read and keeps it.  The property lives on this
    subclass only, so every other graph keeps `edges` as a plain slot, the
    fastest attribute read CPython has."""

    __slots__ = ("_edges",)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Each left vertex's left edges, then its cross edges; the shifted
        right edges last.  Both parts are valid graphs, so this is sorted
        and nothing is validated again."""
        if self._edges is None:
            off = self.split
            left_runs: list[list[tuple[int, int]]] = [[] for _ in range(off)]
            for e in self.left.edges:
                left_runs[e[0]].append(e)
            cross = range(off, self.n)
            edges = []
            for a in range(off):
                edges += left_runs[a]
                edges += zip(repeat(a), cross)
            edges += [(u + off, v + off) for u, v in self.right.edges]
            self._edges = tuple(edges)
        return self._edges


def hat_k(a: int, b: int) -> Graph:
    """Complete graph on a vertices joined to b isolated vertices."""
    return join(clique(a), empty_graph(b))


R7_EDGE_LABELS = (
    ("u1", "u2"), ("u2", "u3"),
    ("u1", "w1"), ("u1", "w2"), ("u2", "w1"), ("u2", "w2"),
    ("u2", "w3"), ("u2", "w4"), ("u3", "w3"), ("u3", "w4"),
)
R7_VERTEX = {"u1": 0, "u2": 1, "u3": 2, "w1": 3, "w2": 4, "w3": 5, "w4": 6}


def r7() -> Graph:
    """Two triangle pairs hanging off a 3-vertex path: 7 vertices, 10 edges."""
    return Graph(7, [(R7_VERTEX[a], R7_VERTEX[b]) for a, b in R7_EDGE_LABELS])


def t_graph(k: int) -> Graph:
    """k vertex-disjoint triangles glued at a single hub vertex."""
    if k < 1:
        raise ParameterError(f"T(k) needs k >= 1, got {k}")
    _check_size(2 * k + 1)
    edges = []
    for i in range(1, k + 1):
        a, b = 2 * i - 1, 2 * i
        edges += [(0, a), (0, b), (a, b)]
    return Graph(2 * k + 1, edges)


def k_delta(s: int, t: int) -> Graph:
    """Star with s spokes, each spoke edge carrying t pendant triangles."""
    if s < 1 or t < 0:
        raise ParameterError(f"KDelta needs s >= 1, t >= 0, got ({s},{t})")
    _check_size(1 + s + s * t)
    edges = [(0, i) for i in range(1, s + 1)]
    for i in range(1, s + 1):
        for j in range(1, t + 1):
            p = s + (i - 1) * t + j
            edges += [(0, p), (i, p)]
    return Graph(1 + s + s * t, edges)


def disjoint_union(parts) -> Graph:
    parts = list(parts)
    off = 0
    edges = []
    for g in parts:
        edges += [(u + off, v + off) for u, v in g.edges]
        off += g.n
    return Graph(off, edges)


_ATOM = re.compile(r"^([a-z_]+)\s*(?:\(\s*(.*)\s*\))?$", re.IGNORECASE)


def parse_graph_spec(spec: str) -> Graph:
    """Parse a named-graph spec string.

    Accepted forms (case-insensitive): Clique(r), CompleteBipartite(a,b),
    Path(k), Star(k), Join(A,B), HatK(a,b), R7, T(k), KDelta(s,t),
    DisjointUnion(A,B,...), plus the shorthands K<r> (clique), P<k> (path),
    and hatk<a><b> with single-digit arguments (e.g. hatk34).

    Sub-specs are parsed depth first and left to right on an explicit
    stack, so no nesting depth overflows the call stack.
    """
    work: list = [spec]  # specs to parse, and (combine, count) steps
    done: list[Graph] = []
    while work:
        item = work.pop()
        if isinstance(item, str):
            parsed = _parse_one(item)
            if isinstance(parsed, Graph):
                done.append(parsed)
            else:
                combine, subs = parsed
                work.append((combine, len(subs)))
                work.extend(reversed(subs))
        else:
            combine, count = item
            done[-count:] = [combine(done[-count:])]
    return done[0]


def _parse_one(spec: str):
    """One level of `parse_graph_spec`: a Graph, or (combine, sub-specs)
    for a spec built from the graphs of its sub-specs."""
    s = spec.strip()
    short = s.lower()
    m = re.fullmatch(r"k(\d+)", short)
    if m:
        return clique(int(m.group(1)))
    m = re.fullmatch(r"p(\d+)", short)
    if m:
        return path_graph(int(m.group(1)))
    m = re.fullmatch(r"hatk(\d)(\d)", short)
    if m:
        return hat_k(int(m.group(1)), int(m.group(2)))
    m = re.fullmatch(r"t(\d+)", short)
    if m:
        return t_graph(int(m.group(1)))
    if short == "r7":
        return r7()
    m = _ATOM.match(s)
    if not m:
        raise ParameterError(f"cannot parse graph spec {spec!r}")
    name = m.group(1).lower()
    arg_src = m.group(2)

    def split_args(text: str) -> list[str]:
        parts, depth, cur = [], 0, []
        for ch in text:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "," and depth == 0:
                parts.append("".join(cur).strip())
                cur = []
            else:
                cur.append(ch)
        if cur:
            parts.append("".join(cur).strip())
        return [p for p in parts if p]

    args = split_args(arg_src) if arg_src else []

    def ints(k: int) -> list[int]:
        if len(args) != k:
            raise ParameterError(f"{name} expects {k} integer argument(s), got {args}")
        try:
            return [int(a) for a in args]
        except ValueError as exc:
            raise ParameterError(f"{name} expects integers, got {args}") from exc

    if name in ("clique", "k"):
        return clique(*ints(1))
    if name in ("completebipartite", "complete_bipartite", "kb"):
        return complete_bipartite(*ints(2))
    if name in ("path", "p"):
        return path_graph(*ints(1))
    if name == "star":
        return star(*ints(1))
    if name == "join":
        if len(args) != 2:
            raise ParameterError(f"Join expects 2 sub-specs, got {args}")
        return lambda parts: join(*parts), args
    if name in ("hatk", "hat_k"):
        return hat_k(*ints(2))
    if name == "r7":
        return r7()
    if name == "t":
        return t_graph(*ints(1))
    if name in ("kdelta", "k_delta"):
        return k_delta(*ints(2))
    if name in ("disjointunion", "disjoint_union"):
        if not args:
            raise ParameterError("DisjointUnion expects >= 1 sub-spec")
        return disjoint_union, args
    if name == "empty":
        return empty_graph(*ints(1))
    raise ParameterError(f"unknown graph spec {spec!r}")


# -- enumeration -----------------------------------------------------------


def _connected_order(h: Graph, start=()) -> list[int]:
    """Vertex order that begins with `start`; each later vertex has the
    most earlier neighbours, then the highest degree, then the lowest id,
    so it has an earlier neighbour whenever one exists."""
    order = list(start)
    placed = sum(1 << v for v in order)
    rest = [v for v in range(h.n) if not placed >> v & 1]
    while rest:
        nxt = max(rest, key=lambda v: ((h.adj[v] & placed).bit_count(), h.adj[v].bit_count(), -v))
        rest.remove(nxt)
        order.append(nxt)
        placed |= 1 << nxt
    return order


def _embeddings(g: Graph, h: Graph, pins=()):
    """Yield every injective map of h into g that sends edges to edges, as
    a tuple of images indexed by h-vertex.

    `pins` holds (h-vertex, g-vertex) pairs every map must send.  Pinned
    vertices are placed first, the rest in `_connected_order`, each on the
    lowest free candidate first, on an explicit stack; so maps come in
    lexicographic order of their images along that order.
    """
    pinned = dict(pins)
    order = _connected_order(h, pinned)
    n = len(order)
    if n == 0:
        yield ()
        return
    pos = {v: i for i, v in enumerate(order)}
    # for each vertex in order, its h-neighbours that appear earlier
    earlier = [[u for u in bits(h.adj[v]) if pos[u] < i] for i, v in enumerate(order)]
    full = g.vertex_mask()
    allowed = [1 << pinned[v] if v in pinned else full for v in order]
    image = [0] * h.n
    cand = [0] * n  # cand[i]: the untried images of order[i]
    used = [0] * n  # used[i]: the images of order[:i]
    cand[0] = allowed[0]
    i = 0
    while i >= 0:
        c = cand[i]
        if not c:
            i -= 1
            continue
        low = c & -c
        cand[i] = c ^ low
        image[order[i]] = low.bit_length() - 1
        if i == n - 1:
            yield tuple(image)
            continue
        i += 1
        used[i] = used[i - 1] | low
        c = allowed[i] & ~used[i]
        for u in earlier[i]:
            c &= g.adj[image[u]]
        cand[i] = c


def enumerate_copies(g: Graph, h: Graph) -> list[tuple[int, ...]]:
    """All copies of h in g (as subgraphs), one embedding per copy.

    An embedding is a vertex tuple (image of h-vertex 0, 1, ...).  Copies
    are deduplicated: two embeddings that induce the same image subgraph
    (same vertex set and same image edge set) count once, and the first
    one `_embeddings` yields stands for the copy.  Non-edges of h are NOT
    required to be non-edges of g.  When h is K3 or K4 the copies are
    `g.cliques(h.n)`, listed without the embedding search.
    """
    if h.n > g.n or h.m > g.m and h.m > 0:
        return []
    if h.n == 0:
        return [()]
    if h.m == 0:
        return [t for t in combinations(range(g.n), h.n)]
    if h.n in (3, 4) and h.m == h.n * (h.n - 1) // 2:  # K3 and K4
        return g.cliques(h.n)

    found: dict[tuple, tuple[int, ...]] = {}
    for image in _embeddings(g, h):
        es = frozenset(
            (image[u], image[v]) if image[u] < image[v] else (image[v], image[u])
            for u, v in h.edges
        )
        found.setdefault((frozenset(image), es), image)
    return sorted(found.values())


_AUT_CAP = 48


def aut_order(g: Graph) -> int:
    """|Aut(g)| as the product of the orbit sizes down a stabiliser chain.

    Vertices are fixed one at a time in `_connected_order`.  The orbit of
    v under the stabiliser of the vertices fixed before it is the set of w
    of v's degree that some map from `_embeddings(g, g)` sends v to while
    fixing them.  An injective edge-preserving map of a finite graph into
    itself is an automorphism, so these maps are the stabiliser's elements.
    """
    n = g.n
    if n > _AUT_CAP:
        raise ParameterError(f"aut_order capped at {_AUT_CAP} vertices, got {n}")
    if n <= 1:
        return 1
    order = 1
    pins: list[tuple[int, int]] = []
    free = set(range(n))
    for v in _connected_order(g):
        free.discard(v)
        degree = g.degree(v)
        order *= 1 + sum(
            1
            for w in free
            if g.degree(w) == degree
            and next(_embeddings(g, g, pins + [(v, w)]), None) is not None
        )
        pins.append((v, v))
    return order


def components(g: Graph) -> list[tuple[Graph, list[int]]]:
    """Connected components with back-maps to original vertex ids.  Every
    isolated vertex gets the one shared K1 graph."""
    seen = 0
    out = []
    for v in range(g.n):
        if seen >> v & 1:
            continue
        if not g.adj[v]:  # isolated: no induced-edge scan
            out.append((_K1, [v]))
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= g.adj[u]
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        out.append(g.subgraph(bits(comp)))
    return out


class DisjointSets:
    """Union-find over the given items, with path halving."""

    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b) -> bool:
        """Hang b's root under a's; False when a and b were already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True

    def groups(self) -> dict:
        """Root -> members; roots and members in item order."""
        out: dict = {}
        for x in self.parent:
            out.setdefault(self.find(x), []).append(x)
        return out


# -- densities -------------------------------------------------------------

_DENSITY_CAP = 20


def edge_counts_all_subsets(g: Graph) -> list[int]:
    """e[mask] = induced edge count, for every vertex subset mask."""
    n = g.n
    e = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        e[mask] = e[rest] + (g.adj[v] & rest).bit_count()
    return e


def densities(h: Graph, want_bip2: bool = True) -> DensityReport:
    """Exact density functionals.

    m1   = max e(J)/v(J) over non-empty subgraphs J,
    m2   = max (e(J)-1)/(v(J)-2) over subgraphs with e(J) >= 2 (None if e(h) < 2),
    m_bip2 = min over vertex bipartitions of max(m1 on each side)
             (None when v > 16 or want_bip2 is false).

    Subgraph maxima are attained on induced subgraphs, so the scans range
    over vertex subsets only.  Every running value is an integer pair
    (numerator, denominator) compared by cross-multiplication; only the
    three returned values become `Fraction`s.  Cost: O(2^v) for m1 and m2,
    O(v 2^v) more for m_bip2.
    """
    if h.n == 0:
        raise ParameterError("densities of the empty graph are undefined")
    if h.n > _DENSITY_CAP:
        raise ParameterError(f"density scan capped at {_DENSITY_CAP} vertices, got {h.n}")
    e = edge_counts_all_subsets(h)
    n1, d1 = 0, 1
    n2, d2 = -1, 1  # below every candidate: m2 is None while it stays
    for mask in range(1, 1 << h.n):
        v = mask.bit_count()
        ecnt = e[mask]
        if ecnt * d1 > n1 * v:
            n1, d1 = ecnt, v
        # two edges span at least three vertices, so v - 2 >= 1 here
        if ecnt >= 2 and (ecnt - 1) * d2 > n2 * (v - 2):
            n2, d2 = ecnt - 1, v - 2
    m_bip2: Fraction | None = None
    if want_bip2 and h.n <= 16:
        # num[S]/den[S] = max density over non-empty subsets of S (0/1 for S empty)
        num = [0] * (1 << h.n)
        den = [1] * (1 << h.n)
        for mask in range(1, 1 << h.n):
            bn, bd = e[mask], mask.bit_count()
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                sub = mask ^ low
                if num[sub] * bd > bn * den[sub]:
                    bn, bd = num[sub], den[sub]
            num[mask], den[mask] = bn, bd
        full = h.vertex_mask()
        n3, d3 = 1, 0  # above every candidate
        for mask in range((1 << h.n) // 2 + 1):
            cn, cd = num[mask], den[mask]
            rn, rd = num[full ^ mask], den[full ^ mask]
            if rn * cd > cn * rd:
                cn, cd = rn, rd
            if cn * d3 < n3 * cd:
                n3, d3 = cn, cd
        m_bip2 = Fraction(n3, d3)
    return DensityReport(
        m1=Fraction(n1, d1), m2=None if n2 < 0 else Fraction(n2, d2), m_bip2=m_bip2)


# -- serialization ---------------------------------------------------------


def graph_to_json(g: Graph) -> str:
    return json.dumps({"n": g.n, "edges": [[u, v] for u, v in g.edges]})


def graph_from_json(text: str) -> Graph:
    """Inverse of graph_to_json; malformed input is a ParameterError."""
    try:
        data = json.loads(text)
        return Graph(int(data["n"]), [tuple(e) for e in data["edges"]])
    except ParameterError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ParameterError(f"malformed graph JSON: {type(exc).__name__}: {exc}") from exc
