"""Rainbow-K6-avoiding colouring of a perturbed bipartite seed.

The random perturbation must be K4-free.  Then every K6 in the union
splits as a triangle inside each part plus nine seed edges, so it is
enough to protect triangle pairs.  Per connected component of the union
of triangles we find matchings M0..M3 with

  (1) each Mi a matching, pairwise edge-disjoint, M0 vertex-disjoint
      from M1, M2, M3;
  (2) every triangle contains an M0 edge, or edges of at least two of
      M1, M2, M3.

M0 and M1 go red, M2 blue, M3 green; every opposite-part (M0 edge, M2
edge) pair gets its seed 4-cycle coloured with two pair-private colours
on opposite edges; everything else is freshly distinct.  A triangle pair
then always repeats a colour: red/red if both triangles are M0- or
M1-hit, a pair-private colour if one is M0-hit and the other leans on
M2, and two-of-three from {red, blue, green} otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .colouring import EdgeColouring
from .errors import ParameterError, SearchExhausted, StructureUnsupported
from .graph import Graph, components
from .model import PerturbedInstance

__all__ = [
    "MatchingQuadruple",
    "triangle_union",
    "find_matchings",
    "avoid_k6",
    "RED",
    "BLUE",
    "GREEN",
]

RED, BLUE, GREEN = 0, 1, 2

_HIT_BUDGET = 10**6
_CSP_BUDGET = 10**7


@dataclass(frozen=True)
class MatchingQuadruple:
    m0: frozenset
    m1: frozenset
    m2: frozenset
    m3: frozenset


def _tri_edges(t):
    a, b, c = t
    return ((a, b), (a, c), (b, c))


def triangle_union(g: Graph) -> Graph:
    """Subgraph of all edges that lie in some triangle (same vertex set)."""
    keep = set()
    for t in g.triangles():
        keep.update(_tri_edges(t))
    return Graph(g.n, sorted(keep))


def verify_quadruple(triangles, q: MatchingQuadruple) -> bool:
    ms = [q.m0, q.m1, q.m2, q.m3]
    for m in ms:
        vs = [v for e in m for v in e]
        if len(vs) != len(set(vs)):
            return False
    for a, b in combinations(range(4), 2):
        if ms[a] & ms[b]:
            return False
    v0 = {v for e in q.m0 for v in e}
    for m in ms[1:]:
        if any(v in v0 for e in m for v in e):
            return False
    for t in triangles:
        es = set(_tri_edges(t))
        if es & q.m0:
            continue
        hit = sum(1 for m in ms[1:] if es & m)
        if hit < 2:
            return False
    return True


# -- searches ----------------------------------------------------------------


def _hitting_matching(triangles, budget: int):
    """A matching containing an edge of every triangle, or None
    (no such matching, or budget ran out).

    Depth-first over the sorted triangles: a node skips the triangles its
    matching already hits, then branches on the first one left, trying
    its edges in `_tri_edges` order.  The open branches are an explicit
    stack, so a long chain of triangles stays within the recursion
    limit; every entered node counts against `budget`."""
    tris = sorted(triangles)
    used: set[int] = set()
    chosen: dict[tuple[int, int], None] = {}  # the matching, in order
    stack: list[tuple[int, int]] = []  # (triangle, index of its chosen edge)
    nodes = 0
    i = 0
    while True:
        nodes += 1  # enter a node at triangle i
        if nodes > budget:
            return None
        while i < len(tris) and not chosen.keys().isdisjoint(_tri_edges(tris[i])):
            i += 1
        if i == len(tris):
            return list(chosen)
        k = 0
        while True:
            edges = _tri_edges(tris[i])
            while k < 3 and (edges[k][0] in used or edges[k][1] in used):
                k += 1
            if k < 3:
                u, v = edges[k]
                used.update((u, v))
                chosen[u, v] = None
                stack.append((i, k))
                i += 1
                break
            if not stack:
                return None
            i, k = stack.pop()
            (u, v), _ = chosen.popitem()
            used.difference_update((u, v))
            k += 1


_PAIR_LABELS = ((1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2))


def _label_search(triangles, budget: int):
    """Backtracking over edge labels M0..M3, always branching on the
    unsatisfied triangle with the fewest legal moves.  Returns a
    MatchingQuadruple, or None (proven none / budget), plus a flag
    telling whether the budget ran out.

    Each label's matching is kept as a vertex bitmask.  The open nodes
    are an explicit stack of (moves, index of the next move) frames, so a
    long chain of triangles stays within the recursion limit; every
    entered node counts against `budget`."""
    tris = [tuple((e, 1 << e[0] | 1 << e[1]) for e in _tri_edges(t))
            for t in sorted(triangles)]
    label: dict[tuple[int, int], int] = {}
    used = [0, 0, 0, 0]  # vertices covered by M0..M3

    def placeable(ends, lab, placed=0) -> bool:
        """Whether an unlabelled edge may join M_lab.  In a pair move,
        `placed` is the first edge's label, which counts as in use."""
        if lab == 0:
            return not (used[0] | used[1] | used[2] | used[3]) & ends
        # Labels 1..3 are interchangeable, so introduce them in order:
        # label k+1 may appear only while label k is in use.
        if lab > 1 and not used[lab - 1] and placed != lab - 1:
            return False
        return not (used[lab] | used[0]) & ends

    def moves_for(tri):
        """None if the triangle is satisfied, else the moves that satisfy
        it.  Each move is a tuple of (edge, ends, label) placements; single
        additions before pairs before M0."""
        present = {label[e] for e, _ in tri if e in label}
        if 0 in present or len(present) >= 2:
            return None
        free = [(e, ends) for e, ends in tri if e not in label]
        if present:
            want = sorted({1, 2, 3} - present)
            out = [((e, ends, lab),) for e, ends in free for lab in want
                   if placeable(ends, lab)]
        else:
            out = [((e, ee, l1), (f, fe, l2))
                   for (e, ee), (f, fe) in combinations(free, 2)
                   for l1, l2 in _PAIR_LABELS
                   if placeable(ee, l1) and placeable(fe, l2, l1)]
        out += [((e, ends, 0),) for e, ends in free if placeable(ends, 0)]
        return out

    stack: list[list] = []
    nodes = 0
    while True:
        nodes += 1  # enter a node
        if nodes > budget:
            return None, True
        best = None
        for tri in tris:
            mv = moves_for(tri)
            if mv is not None and (best is None or len(mv) < len(best)):
                best = mv
                if len(mv) <= 1:
                    break
        if best is None:
            ms = [frozenset(e for e, l in label.items() if l == lab) for lab in range(4)]
            return MatchingQuadruple(*ms), False
        stack.append([best, 0])
        while True:  # undo the top frame's last move, then try its next
            if not stack:
                return None, False
            frame = stack[-1]
            moves, i = frame
            if i:
                for e, ends, lab in moves[i - 1]:
                    del label[e]
                    used[lab] &= ~ends
            if i == len(moves):
                stack.pop()
                continue
            frame[1] = i + 1
            for e, ends, lab in moves[i]:
                label[e] = lab
                used[lab] |= ends
            break


def find_matchings(component: Graph) -> MatchingQuadruple:
    """Matchings M0..M3 covering every triangle of the component as in the
    two conditions above.

    A single hitting matching (M0 alone) if one exists; otherwise the
    exact, bounded search over all four labels.
    """
    comps = [c for c, _ in components(component) if c.n > 1]
    if component.m == 0 or len(comps) != 1 or comps[0].m != component.m:
        raise ParameterError("expected a single connected component with edges")
    tris = component.triangles()
    tri_es = {e for t in tris for e in _tri_edges(t)}
    if tri_es != set(component.edges):
        raise ParameterError("every edge must lie in a triangle")

    def done(q: MatchingQuadruple) -> MatchingQuadruple:
        if not verify_quadruple(tris, q):
            raise RuntimeError("internal: candidate quadruple failed verification")
        return q

    hit = _hitting_matching(tris, _HIT_BUDGET)
    if hit is not None:
        return done(MatchingQuadruple(frozenset(hit), frozenset(), frozenset(), frozenset()))

    q, out_of_budget = _label_search(tris, _CSP_BUDGET)
    if q is not None:
        return done(q)
    if out_of_budget:
        raise SearchExhausted(
            f"matching-quadruple search budget exhausted on a component with "
            f"{component.n} vertices, {component.m} edges")
    raise SearchExhausted(
        f"no valid matching quadruple exists for a component with "
        f"{component.n} vertices, {component.m} edges")


# -- the avoider -------------------------------------------------------------


def _part_matchings(part: Graph, offset: int) -> MatchingQuadruple:
    tu = triangle_union(part)
    m = [set(), set(), set(), set()]
    for sub, back in components(tu):
        if sub.m == 0:
            continue
        q = find_matchings(sub)
        for i, edges in enumerate((q.m0, q.m1, q.m2, q.m3)):
            for u, v in edges:
                m[i].add((back[u] + offset, back[v] + offset))
    return MatchingQuadruple(*(frozenset(x) for x in m))


def avoid_k6(instance: PerturbedInstance) -> EdgeColouring:
    """Total proper colouring of the instance with no rainbow K6.

    Requires the perturbation to be K4-free (else StructureUnsupported);
    may raise SearchExhausted through find_matchings.
    """
    for side, part in (("left", instance.left), ("right", instance.right)):
        k4 = part.cliques(4)
        if k4:
            raise StructureUnsupported(
                f"random edges inside the {side} part contain a K4",
                offending=k4[0])
    off = instance.u_size
    qa = _part_matchings(instance.left, 0)
    qb = _part_matchings(instance.right, off)

    g = instance.graph()
    psi = EdgeColouring(g)
    for e in qa.m0 | qa.m1 | qb.m0 | qb.m1:
        psi.assign(*e, RED)
    for e in qa.m2 | qb.m2:
        psi.assign(*e, BLUE)
    for e in qa.m3 | qb.m3:
        psi.assign(*e, GREEN)

    next_colour = 3
    for m0_edges, m2_edges in ((qa.m0, qb.m2), (qb.m0, qa.m2)):
        for x, y in sorted(m0_edges):
            for z, w in sorted(m2_edges):
                c1, c2 = next_colour, next_colour + 1
                next_colour += 2
                psi.assign(x, z, c1)
                psi.assign(y, w, c1)
                psi.assign(x, w, c2)
                psi.assign(y, z, c2)

    psi.fill_fresh(start=next_colour)
    return psi
