"""Proper edge-colourings, rainbow detection, interest/compatible sets,
and an exact backtracking decider for "every proper colouring contains a
rainbow copy".

Colours are dense non-negative ints; equality is their only meaning.
Colourings may be partial; rainbow checks treat uncoloured edges as
wildcards that never clash.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ParameterError
from .graph import Graph, common_neighbourhood, enumerate_copies

__all__ = [
    "EdgeColouring",
    "ArrowsVerdict",
    "is_proper",
    "find_properness_clash",
    "rainbow_copies",
    "interest_set",
    "compatible_set",
    "random_proper_colouring",
    "decide_arrows",
    "colouring_to_json",
    "colouring_from_json",
]


# Colour ids must fit int64: find_properness_clash sorts them with numpy.
_MAX_COLOUR = 2**63 - 1


def _check_colour_range(lo: int, hi: int) -> None:
    if lo < 0:
        raise ParameterError(f"colour ids must be >= 0, got {lo}")
    if hi > _MAX_COLOUR:
        raise ParameterError(f"colour ids must be <= 2**63 - 1, got {hi}")


class EdgeColouring:
    """Partial edge colouring of a fixed graph.

    The edge -> colour map is the only store.  Per-vertex facts
    (`colours_at`, `would_clash`) walk the vertex's neighbours, so they cost
    O(degree); `find_properness_clash` checks the whole colouring in one
    numpy pass.  Fresh colours are handed out monotonically.

    `assign_many` and `fill_fresh` colour many edges in one call.  The
    bulk contract: every input is validated before anything changes (a
    rejected call leaves the colouring as it was), and the result is the
    colouring that assigning the same pairs one at a time would give, with
    the same colour ids.
    """

    __slots__ = ("graph", "_col", "next_colour")

    def __init__(self, graph: Graph, colours=None):
        self.graph = graph
        self._col: dict[tuple[int, int], int] = {}
        self.next_colour = 0
        if colours:
            items = colours.items() if isinstance(colours, dict) else colours
            for key, c in items:
                u, v = key
                self.assign(u, v, c)

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if not self.graph.has_edge(u, v):
            raise ParameterError(f"({u},{v}) is not an edge of the companion graph")
        return (u, v) if u < v else (v, u)

    def assign(self, u: int, v: int, colour: int) -> None:
        _check_colour_range(colour, colour)
        self._col[self._key(u, v)] = colour
        if colour >= self.next_colour:
            self.next_colour = colour + 1

    def assign_many(self, edges, colours) -> None:
        """Colour `edges[i]` with `colours[i]` for every i.

        Each edge is a (u, v) tuple with u < v, an edge of the graph, not
        yet coloured and listed once; each colour is an int in
        [0, 2**63 - 1].
        """
        edges = list(edges)
        colours = list(colours)
        if len(edges) != len(colours):
            raise ParameterError(
                f"{len(edges)} edges but {len(colours)} colours")
        n, adj = self.graph.n, self.graph.adj
        for u, v in edges:
            if not (0 <= u < v < n and adj[u] >> v & 1):
                raise ParameterError(
                    f"({u},{v}) is not an edge (u < v) of the companion graph")
        if colours:
            _check_colour_range(min(colours), max(colours))
        new = dict(zip(edges, colours))
        if len(new) != len(edges):
            raise ParameterError("an edge is listed more than once")
        if not self._col.keys().isdisjoint(new):
            e = next(e for e in edges if e in self._col)
            raise ParameterError(f"{e} is already coloured")
        self._add(edges, colours)

    def fill_fresh(self, start: int | None = None) -> None:
        """Give every uncoloured edge its own fresh colour, consecutive from
        `start` (default: next_colour, the lowest fresh one) in graph edge
        order."""
        first = self.next_colour if start is None else start
        if first < self.next_colour:
            raise ParameterError(
                f"colour {first} may be in use; fresh colours start at {self.next_colour}")
        col = self._col
        todo = [e for e in self.graph.edges if e not in col]
        if todo:
            _check_colour_range(first, first + len(todo) - 1)
        self._add(todo, range(first, first + len(todo)))

    def _add(self, edges, colours) -> None:
        """Colour validated, distinct, uncoloured edges."""
        self._col.update(zip(edges, colours))
        if colours:
            self.next_colour = max(self.next_colour, max(colours) + 1)

    def get(self, u: int, v: int):
        return self._col.get(self._key(u, v))

    def colours(self, edges) -> list[int]:
        """Colour of each (u, v) key, u < v, in order.  Keys are not
        validated one by one: an uncoloured edge or any other key raises
        ParameterError."""
        col = self._col
        try:
            return [col[e] for e in edges]
        except KeyError as exc:
            raise ParameterError(
                f"{exc.args[0]} is not a coloured edge (u < v) of the companion graph"
            ) from None

    def assign_fresh(self, u: int, v: int) -> int:
        c = self.next_colour
        self.assign(u, v, c)
        return c

    def domain(self) -> list[tuple[int, int]]:
        return sorted(self._col)

    def is_total(self) -> bool:
        return len(self._col) == self.graph.m

    def colours_used(self) -> set[int]:
        return set(self._col.values())

    def colour_set(self, edges) -> set[int]:
        """Colours on the given edges; uncoloured edges contribute nothing."""
        out = set()
        for u, v in edges:
            c = self._col.get((u, v) if u < v else (v, u))
            if c is not None:
                out.add(c)
        return out

    def would_clash(self, u: int, v: int, colour: int) -> bool:
        """Would assigning `colour` to uv break properness?  O(degree)."""
        self._key(u, v)  # rejects a non-edge
        col = self._col
        for a, b in ((u, v), (v, u)):
            for w in self.graph.neighbours(a):
                if w != b and col.get((a, w) if a < w else (w, a)) == colour:
                    return True
        return False

    def colours_at(self, v: int) -> set[int]:
        """Colours on the coloured edges at v.  O(degree)."""
        return self.colour_set((v, w) for w in self.graph.neighbours(v))

    def copy(self) -> "EdgeColouring":
        out = EdgeColouring.__new__(EdgeColouring)
        out.graph = self.graph
        out._col = dict(self._col)
        out.next_colour = self.next_colour
        return out

    def __len__(self):
        return len(self._col)

    def __repr__(self):
        return f"EdgeColouring({len(self._col)}/{self.graph.m} edges, {len(self.colours_used())} colours)"


@dataclass
class ArrowsVerdict:
    outcome: str  # "arrows" | "witness" | "unknown"
    witness: EdgeColouring | None
    nodes: int

    @property
    def arrows(self) -> bool:
        return self.outcome == "arrows"


def is_proper(g: Graph, psi: EdgeColouring) -> bool:
    return find_properness_clash(g, psi) is None


def find_properness_clash(g: Graph, psi: EdgeColouring):
    """Lowest properness violation as (vertex, colour, offending edges).

    Returns None when psi is proper; otherwise `vertex` is the lowest
    vertex where two edges share a colour, `colour` the lowest such colour
    there, and the offending edges are the >= 2 edges at `vertex` with it.
    """
    if psi.graph is not g and psi.graph != g:
        raise ParameterError("colouring belongs to a different graph")
    col = psi._col
    m = len(col)
    # One row per (endpoint, colour) incidence; sorted, a clash is two
    # equal neighbouring rows.
    ends = np.fromiter(chain.from_iterable(col), dtype=np.int64, count=2 * m)
    cols = np.fromiter(col.values(), dtype=np.int64, count=m).repeat(2)
    order = np.lexsort((cols, ends))
    ends, cols = ends[order], cols[order]
    same = (ends[1:] == ends[:-1]) & (cols[1:] == cols[:-1])
    if not same.any():
        return None
    i = int(same.argmax())
    v, c = int(ends[i]), int(cols[i])
    edges = tuple(
        (min(v, u), max(v, u))
        for u in g.neighbours(v)
        if psi.get(v, u) == c
    )
    return v, c, edges


def rainbow_copies(g: Graph, psi: EdgeColouring, h: Graph) -> list[tuple[int, ...]]:
    """Embeddings of h in g whose coloured image edges have pairwise
    distinct colours. Uncoloured edges are wildcards."""
    out = []
    for emb in enumerate_copies(g, h):
        cols = []
        for u, v in h.edges:
            c = psi.get(emb[u], emb[v])
            if c is not None:
                cols.append(c)
        if len(cols) == len(set(cols)):
            out.append(emb)
    return out


def interest_set(g: Graph, psi: EdgeColouring, k_vertices) -> set[int]:
    """Common neighbours of K whose cross-star colours avoid the colours
    used inside K."""
    ks = sorted(k_vertices)
    inside = psi.colour_set(
        (a, b) for i, a in enumerate(ks) for b in ks[i + 1:] if g.has_edge(a, b)
    )
    pool = common_neighbourhood(g, ks)
    out = set()
    for x in pool:
        cross = psi.colour_set((x, k) for k in ks)
        if not (cross & inside):
            out.add(x)
    return out


def compatible_set(g: Graph, psi: EdgeColouring, k_vertices) -> set[int]:
    """Greedy (ascending vertex id) sub-family of the interest set whose
    cross-star colour sets are pairwise disjoint."""
    ks = sorted(k_vertices)
    chosen: set[int] = set()
    taken: set[int] = set()
    for x in sorted(interest_set(g, psi, ks)):
        cross = psi.colour_set((x, k) for k in ks)
        if not (cross & taken):
            chosen.add(x)
            taken |= cross
    return chosen


def random_proper_colouring(g: Graph, rng, fresh_bias: float) -> EdgeColouring:
    """Random proper colouring: random edge order; each edge goes fresh
    with probability fresh_bias, else takes a uniform non-conflicting
    already-used colour (fresh when none is available)."""
    if not (0.0 <= fresh_bias <= 1.0):
        raise ParameterError(f"fresh_bias must be a probability, got {fresh_bias}")
    psi = EdgeColouring(g)
    order = list(g.edges)
    rng.shuffle(order)
    for u, v in order:
        if fresh_bias < 1.0 and rng.random() >= fresh_bias:
            blocked = psi.colours_at(u) | psi.colours_at(v)
            legal = [c for c in range(psi.next_colour) if c not in blocked]
            if legal:
                psi.assign(u, v, legal[rng.randrange(len(legal))])
                continue
        psi.assign_fresh(u, v)
    return psi


def decide_arrows(g: Graph, h: Graph, node_budget: int = 2_000_000) -> ArrowsVerdict:
    """Does every proper edge-colouring of g contain a rainbow copy of h?

    Exhaustive backtracking over colour assignments.  Completeness rests on
    colour-permutation invariance: a fresh colour is only ever introduced
    as (max used + 1), which enumerates proper colourings up to renaming,
    and the rainbow-free property is renaming-invariant.
    """
    if node_budget <= 0:
        raise ParameterError(f"node budget must be positive, got {node_budget}")
    if h.m == 0 and h.n <= g.n:  # every copy of an edgeless h is rainbow
        return ArrowsVerdict("arrows", None, 0)
    m = g.m
    copy_sets = sorted({
        frozenset(g.edge_id(emb[u], emb[v]) for u, v in h.edges)
        for emb in enumerate_copies(g, h)
    }, key=sorted)
    copies = [tuple(sorted(cs)) for cs in copy_sets]
    through: list[list[int]] = [[] for _ in range(m)]
    for ci, es in enumerate(copies):
        for e in es:
            through[e].append(ci)
    order = sorted(range(m), key=lambda e: (-len(through[e]), e))
    adj_list = [
        [f for f in range(m) if f != e and set(g.edges[e]) & set(g.edges[f])]
        for e in range(m)
    ]
    col = [-1] * m
    nodes = 0
    h_size = h.m

    def copy_blocks(e: int) -> bool:
        """After colouring e: does some copy become rainbow, or rainbow-forced?"""
        for ci in through[e]:
            es = copies[ci]
            seen = []
            missing = []
            for f in es:
                if col[f] >= 0:
                    seen.append(col[f])
                else:
                    missing.append(f)
            if len(set(seen)) != len(seen):
                continue  # already a repeat inside: never rainbow
            if not missing:
                return True  # fully coloured and rainbow
            if len(missing) == 1 and h_size >= 2:
                f = missing[0]
                # f must repeat a copy colour; conflicts only grow, so if no
                # copy colour is currently legal at f the copy is doomed
                legal = False
                for c in set(seen):
                    if all(col[x] != c for x in adj_list[f]):
                        legal = True
                        break
                if not legal:
                    return True
        return False

    def search(pos: int, max_used: int):
        nonlocal nodes
        if pos == m:
            return True
        e = order[pos]
        for c in range(min(max_used + 2, m)):
            nodes += 1
            if nodes > node_budget:
                return None
            if any(col[f] == c for f in adj_list[e]):
                continue
            col[e] = c
            if not copy_blocks(e):
                r = search(pos + 1, max(max_used, c))
                if r is not False:
                    return r
            col[e] = -1
        return False

    result = search(0, -1)
    if result is None:
        return ArrowsVerdict("unknown", None, nodes)
    if result is False:
        return ArrowsVerdict("arrows", None, nodes)
    witness = EdgeColouring(g)
    for e in range(m):
        u, v = g.edges[e]
        witness.assign(u, v, col[e])
    return ArrowsVerdict("witness", witness, nodes)


# -- serialization ---------------------------------------------------------


def colouring_to_json(psi: EdgeColouring) -> str:
    return json.dumps({"edges": [[u, v, psi.get(u, v)] for u, v in psi.domain()]})


def colouring_from_json(g: Graph, text: str) -> EdgeColouring:
    data = json.loads(text)
    psi = EdgeColouring(g)
    for u, v, c in data["edges"]:
        psi.assign(u, v, c)
    return psi
