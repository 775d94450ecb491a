"""Automorphism group orders.

`aut_order` rests on one search, `_colour_iso_exists_pair`: colour
refinement on the disjoint union of two graphs, then individualisation of
one vertex on each side of the first cell that is not yet a singleton,
until the partition is discrete and the matching it induces is checked
edge by edge.  `aut_order` runs it on a graph against itself with vertices
pinned, one orbit-stabiliser level at a time.
"""

from __future__ import annotations

from .errors import ParameterError
from .graph import Graph, bits

__all__ = ["aut_order"]

_AUT_CAP = 48


def _refine(adj, colours):
    """One-dimensional colour refinement to a stable partition.

    Colour ids are normalised by sorting signatures, so the result only
    depends on the isomorphism type of (graph, colouring).
    """
    n = len(adj)
    colours = list(colours)
    while True:
        sig = []
        for v in range(n):
            neigh = sorted(colours[u] for u in bits(adj[v]))
            sig.append((colours[v], tuple(neigh)))
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[s] for s in sig]
        if new == colours:
            return new
        colours = new


def _cells(colours):
    out: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        out.setdefault(c, []).append(v)
    return out


def _colour_iso_exists_pair(adj2, n, src_colours, dst_colours) -> bool:
    """Is there a colour-respecting isomorphism from the first half of the
    disjoint union adj2 (vertices 0..n-1, coloured src) onto the second
    (vertices n..2n-1, coloured dst)?  Joint refinement on the union keeps
    the colour ids of the two halves comparable."""
    base = [2 * c for c in src_colours] + [2 * c for c in dst_colours]
    colours = _refine(adj2, base)

    def split(colours):
        cells = _cells(colours)
        for c in sorted(cells):
            cell = cells[c]
            left = [v for v in cell if v < n]
            right = [v for v in cell if v >= n]
            if len(left) != len(right):
                return None
            if len(left) > 1:
                return c, left, right
        return "discrete"

    def rec(colours) -> bool:
        res = split(colours)
        if res is None:
            return False
        if res == "discrete":
            cells = _cells(colours)
            mapping = {}
            for cell in cells.values():
                u = min(cell)
                w = max(cell)
                mapping[u] = w - n
            for u in range(n):
                au = adj2[u]
                for v in bits(au):
                    if v <= u or v >= n:
                        continue
                    a, b = mapping[u], mapping[v]
                    if not (adj2[n + a] >> (n + b)) & 1:
                        return False
            return True
        _, left, right = res
        u = left[0]
        for w in right:
            child = colours[:]
            fresh = len(child)
            child[u] = fresh
            child[w] = fresh
            if rec(_refine(adj2, child)):
                return True
        return False

    return rec(colours)


def aut_order(g: Graph) -> int:
    """|Aut(g)| via an orbit-stabiliser chain.

    At each level the first non-singleton cell of the refined partition is
    taken, the orbit of its least vertex under the current point stabiliser
    is counted by individual existence searches, and the vertex is pinned.
    The product of orbit sizes over the chain is the group order.
    """
    n = g.n
    if n > _AUT_CAP:
        raise ParameterError(f"aut_order capped at {_AUT_CAP} vertices, got {n}")
    if n <= 1:
        return 1

    adj2 = list(g.adj) + [a << n for a in g.adj]  # g beside a copy of itself
    order = 1
    pinned: list[int] = []
    while True:
        base = [0] * n
        for i, v in enumerate(pinned):
            base[v] = i + 1
        colours = _refine(g.adj, base)
        cells = _cells(colours)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            return order
        v0 = target[0]
        orbit = 1
        for w in target[1:]:
            src = base[:]
            dst = base[:]
            tag = n + 1
            src[v0] = tag
            dst[w] = tag
            if _colour_iso_exists_pair(adj2, n, src, dst):
                orbit += 1
        order *= orbit
        pinned.append(v0)
