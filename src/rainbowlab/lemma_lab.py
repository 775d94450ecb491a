"""Guaranteed rainbow-clique extractors over coloured join scaffolds.

Each public extractor consumes a properly edge-coloured *scaffold* — a
join of two structured sides — and returns a rainbow clique whose
existence is forced by counting alone.  The procedures are fully
constructive: every step either picks an object that provably exists
(pigeonhole over distinct colours at a shared vertex, a colour budget
smaller than a candidate list, ...) or raises CounterexampleFound
carrying the whole instance.  A genuine CounterexampleFound on a valid
input would falsify the combinatorial statement the extractor
implements, so the trial harness archives it verbatim.

Scaffolds and their guarantees
------------------------------
* ``rainbow_k4_scaffold``  — the 3-leaf star joined to the 4-leaf star.
  The four right-star colours are distinct, the left side uses at most
  three, so a right edge with an unused colour exists and one of the
  three left edges completes it to a rainbow K4.
* ``rainbow_k5_scaffold``  — a triangle joined to a 4-leaf star.  When
  everything except the star edges is rainbow, one of the four star
  edges avoids the three triangle colours and yields a rainbow K5.
* ``triangle_pair_instance`` — the 7-vertex double-triangle cherry next
  to a 10-triangle fan, vertex disjoint.  Any proper colouring admits a
  fan triangle and a cherry triangle with disjoint colour sets.
* ``rainbow_k6_scaffold``  — 31 cherries joined to a 10-triangle fan.
  Votes from the per-cherry triangle pairs pigeonhole onto one fan
  triangle; a rainbow cross then pins a rainbow K6.
* ``spoked_fan_instance``  — a 25-spoke star whose every spoke edge
  carries 49 pendant triangles.  Deleting any 24 matchings leaves a
  triangle intact.
* ``rainbow_k7_scaffold``  — four triangle-join blocks next to the
  spoked fan.  Pruning the at most 24 colours of the blocks' rainbow
  K4s removes at most 24 matchings, so a surviving fan triangle plus a
  clean cross block forms a rainbow K7.

Exhaustive certificates
-----------------------
The K4 lemma is proved for every proper colouring, not only sampled ones:
``decide_arrows(rainbow_k4_scaffold().graph, clique(4))`` answers
"arrows" after 8,324,093 search nodes, and a test pins both.  The K5
scaffold is no candidate: its lemma assumes a rainbow core, and without
that assumption ``decide_arrows`` finds a proper colouring of the scaffold
with no rainbow K5 after 100 nodes, so the enumeration of its colourings
over a rainbow core stays its certificate.  The other four instances
(40 to 37,563 edges) are out of exhaustive reach.

Precondition violations are reported eagerly as StructureUnsupported
with a structured PreconditionFailure payload instead of proceeding on
bad evidence.  Symmetric "pick either side" arguments are enumerated as
explicit candidate lists, in a fixed deterministic order.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .colouring import (
    EdgeColouring,
    colouring_to_json,
    find_properness_clash,
    random_proper_colouring,
)
from .errors import CounterexampleFound, ParameterError, StructureUnsupported
from .graph import (
    Graph,
    clique,
    disjoint_union,
    graph_to_json,
    hat_k,
    join,
    k_delta,
    r7,
    star,
    t_graph,
)

__all__ = [
    "rainbow_k4_scaffold",
    "rainbow_k5_scaffold",
    "triangle_pair_instance",
    "rainbow_k6_scaffold",
    "spoked_fan_instance",
    "rainbow_k7_scaffold",
    "sample_rainbow_k4_colouring",
    "sample_rainbow_k5_colouring",
    "sample_triangle_pair_colouring",
    "sample_rainbow_k6_colouring",
    "sample_fan_matchings",
    "sample_rainbow_k7_colouring",
    "extract_rainbow_k4",
    "extract_rainbow_k5",
    "disjoint_colour_triangles",
    "extract_rainbow_k6",
    "surviving_triangle",
    "extract_rainbow_k7",
    "LEMMA_NAMES",
    "certify_lemma",
]

# Scaffold dimensions.  Each value is the smallest that closes the
# counting argument used by the corresponding extractor.
FAN_SIZE = 10  # 6 colours at the cherry hub block <= 6 fan triangles, leaving >= 4
CHERRY_COPIES = 31  # 3 * FAN_SIZE + 1 forces four cherries onto one fan triangle
BLOCK_COUNT = 4  # three triangle colours can pollute at most 3 cross blocks
SPOKES = 25  # one more than the 24 prunable colour classes
TRIANGLES_PER_SPOKE = 49  # one more than 2 * 24: a matching kills <= 2 per spoke

_CROSS_PALETTE_BASE = 10**7  # cross colours live far above any side palette


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# -- structured diagnostics --------------------------------------------------


@dataclass(frozen=True)
class PreconditionFailure:
    """Machine-readable report of a violated extractor precondition."""

    check: str
    detail: str
    witness: tuple = ()


def _fail_precondition(check: str, detail: str, witness: tuple = ()):
    raise StructureUnsupported(
        f"precondition '{check}' violated: {detail}",
        offending=PreconditionFailure(check, detail, witness),
    )


def _counterexample(message: str, graph: Graph, psi: EdgeColouring | None, **extra):
    payload = {"graph": graph_to_json(graph), "detail": extra}
    if psi is not None:
        payload["colouring"] = colouring_to_json(psi)
    raise CounterexampleFound(message, payload)


# -- role descriptors ---------------------------------------------------------


@dataclass(frozen=True)
class DoubleTriangleCherry:
    """The 7-vertex gadget: a path left-hub-right whose two path edges
    each carry two pendant triangle tips."""

    left: int
    hub: int
    right: int
    left_tips: tuple[int, int]
    right_tips: tuple[int, int]

    @classmethod
    def at_offset(cls, off: int) -> "DoubleTriangleCherry":
        return cls(off, off + 1, off + 2, (off + 3, off + 4), (off + 5, off + 6))

    def vertices(self) -> tuple[int, ...]:
        return (self.left, self.hub, self.right) + self.left_tips + self.right_tips

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = [_norm(self.left, self.hub), _norm(self.hub, self.right)]
        for w in self.left_tips:
            out += [_norm(self.left, w), _norm(self.hub, w)]
        for w in self.right_tips:
            out += [_norm(self.hub, w), _norm(self.right, w)]
        return tuple(out)


@dataclass(frozen=True)
class TriangleFan:
    """Triangles glued at a single hub: hub + one rim pair per triangle."""

    hub: int
    rim: tuple[tuple[int, int], ...]

    @classmethod
    def at_offset(cls, off: int, k: int) -> "TriangleFan":
        return cls(off, tuple((off + 2 * i - 1, off + 2 * i) for i in range(1, k + 1)))

    def triangle(self, i: int) -> tuple[int, int, int]:
        a, b = self.rim[i]
        return (self.hub, a, b)

    def vertices(self) -> tuple[int, ...]:
        return (self.hub,) + tuple(v for pair in self.rim for v in pair)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for a, b in self.rim:
            out += [_norm(self.hub, a), _norm(self.hub, b), _norm(a, b)]
        return tuple(out)


@dataclass(frozen=True)
class SpokedTriangleFan:
    """A star skeleton (centre + spokes) whose every spoke edge carries
    pendant triangles through private apex vertices."""

    centre: int
    spokes: tuple[int, ...]
    apexes: tuple[tuple[int, ...], ...]

    @classmethod
    def at_offset(cls, off: int, s: int, t: int) -> "SpokedTriangleFan":
        spokes = tuple(off + i for i in range(1, s + 1))
        apexes = tuple(
            tuple(off + s + (i - 1) * t + j for j in range(1, t + 1))
            for i in range(1, s + 1)
        )
        return cls(off, spokes, apexes)

    def triangle(self, i: int, j: int) -> tuple[int, int, int]:
        return (self.centre, self.spokes[i], self.apexes[i][j])

    def vertices(self) -> tuple[int, ...]:
        return (self.centre,) + self.spokes + tuple(p for row in self.apexes for p in row)

    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for i, s in enumerate(self.spokes):
            out.append(_norm(self.centre, s))
            for p in self.apexes[i]:
                out += [_norm(self.centre, p), _norm(s, p)]
        return tuple(out)


@dataclass(frozen=True)
class JoinedTriangleBlock:
    """A triangle joined to four independent vertices (7 vertices, 15 edges)."""

    triangle: tuple[int, int, int]
    free: tuple[int, int, int, int]

    @classmethod
    def at_offset(cls, off: int) -> "JoinedTriangleBlock":
        return cls((off, off + 1, off + 2), (off + 3, off + 4, off + 5, off + 6))

    def vertices(self) -> tuple[int, ...]:
        return self.triangle + self.free

    def edges(self) -> tuple[tuple[int, int], ...]:
        x1, x2, x3 = self.triangle
        out = [_norm(x1, x2), _norm(x1, x3), _norm(x2, x3)]
        for z in self.free:
            out += [_norm(x1, z), _norm(x2, z), _norm(x3, z)]
        return tuple(out)


# -- scaffolds ---------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class StarJoinScaffold:
    """Two stars, every left vertex adjacent to every right vertex."""

    graph: Graph
    left_centre: int
    left_leaves: tuple[int, ...]
    right_centre: int
    right_leaves: tuple[int, ...]

    def left_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_norm(self.left_centre, x) for x in self.left_leaves)

    def right_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_norm(self.right_centre, z) for z in self.right_leaves)


@dataclass(frozen=True, eq=False)
class TriangleStarScaffold:
    """A triangle joined to a star; the star edges are the only edges
    allowed to repeat colours of the rest (the rainbow core)."""

    graph: Graph
    triangle: tuple[int, int, int]
    star_centre: int
    star_leaves: tuple[int, ...]
    core_keys: tuple[tuple[int, int], ...]

    def star_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(_norm(self.star_centre, z) for z in self.star_leaves)


@dataclass(frozen=True, eq=False)
class TrianglePairInstance:
    """Vertex-disjoint union of one cherry and one triangle fan."""

    graph: Graph
    cherry: DoubleTriangleCherry
    fan: TriangleFan


@dataclass(frozen=True, eq=False)
class RainbowK6Scaffold:
    graph: Graph
    cherries: tuple[DoubleTriangleCherry, ...]
    fan: TriangleFan
    left_keys: tuple[tuple[int, int], ...]
    right_keys: tuple[tuple[int, int], ...]
    cross_keys: tuple[tuple[int, int], ...]


@dataclass(frozen=True, eq=False)
class SpokedFanInstance:
    graph: Graph
    roles: SpokedTriangleFan


@dataclass(frozen=True, eq=False)
class RainbowK7Scaffold:
    graph: Graph
    blocks: tuple[JoinedTriangleBlock, ...]
    fan: SpokedTriangleFan
    left_keys: tuple[tuple[int, int], ...]
    right_keys: tuple[tuple[int, int], ...]
    cross_keys: tuple[tuple[int, int], ...]


def _cross_keys(left_vertices, right_vertices) -> tuple[tuple[int, int], ...]:
    return tuple(_norm(u, w) for u in left_vertices for w in right_vertices)


@lru_cache(maxsize=None)
def rainbow_k4_scaffold() -> StarJoinScaffold:
    g = join(star(3), star(4))
    return StarJoinScaffold(g, 0, (1, 2, 3), 4, (5, 6, 7, 8))


@lru_cache(maxsize=None)
def rainbow_k5_scaffold() -> TriangleStarScaffold:
    g = join(clique(3), star(4))
    triangle = (0, 1, 2)
    centre, leaves = 3, (4, 5, 6, 7)
    core = [_norm(0, 1), _norm(0, 2), _norm(1, 2)]
    core += [_norm(x, y) for x in triangle for y in (centre,) + leaves]
    return TriangleStarScaffold(g, triangle, centre, leaves, tuple(core))


@lru_cache(maxsize=None)
def triangle_pair_instance() -> TrianglePairInstance:
    g = disjoint_union([r7(), t_graph(FAN_SIZE)])
    return TrianglePairInstance(
        g, DoubleTriangleCherry.at_offset(0), TriangleFan.at_offset(7, FAN_SIZE)
    )


@lru_cache(maxsize=None)
def rainbow_k6_scaffold() -> RainbowK6Scaffold:
    left = disjoint_union([r7()] * CHERRY_COPIES)
    g = join(left, t_graph(FAN_SIZE))
    cherries = tuple(DoubleTriangleCherry.at_offset(7 * c) for c in range(CHERRY_COPIES))
    fan = TriangleFan.at_offset(7 * CHERRY_COPIES, FAN_SIZE)
    left_keys = tuple(k for ch in cherries for k in ch.edges())
    return RainbowK6Scaffold(
        g,
        cherries,
        fan,
        left_keys,
        fan.edges(),
        _cross_keys(range(left.n), fan.vertices()),
    )


@lru_cache(maxsize=None)
def spoked_fan_instance() -> SpokedFanInstance:
    g = k_delta(SPOKES, TRIANGLES_PER_SPOKE)
    return SpokedFanInstance(g, SpokedTriangleFan.at_offset(0, SPOKES, TRIANGLES_PER_SPOKE))


@lru_cache(maxsize=None)
def rainbow_k7_scaffold() -> RainbowK7Scaffold:
    left = disjoint_union([hat_k(3, 4)] * BLOCK_COUNT)
    right = k_delta(SPOKES, TRIANGLES_PER_SPOKE)
    g = join(left, right)
    blocks = tuple(JoinedTriangleBlock.at_offset(7 * b) for b in range(BLOCK_COUNT))
    fan = SpokedTriangleFan.at_offset(left.n, SPOKES, TRIANGLES_PER_SPOKE)
    left_keys = tuple(k for b in blocks for k in b.edges())
    return RainbowK7Scaffold(
        g,
        blocks,
        fan,
        left_keys,
        fan.edges(),
        _cross_keys(range(left.n), fan.vertices()),
    )


# -- eager precondition checks ------------------------------------------------


def _require_colouring_of(g: Graph, psi: EdgeColouring):
    if psi.graph is not g and psi.graph != g:
        raise ParameterError("colouring belongs to a different graph than the scaffold")


def _check_total_proper(g: Graph, psi: EdgeColouring):
    _require_colouring_of(g, psi)
    if not psi.is_total():
        _fail_precondition(
            "total-colouring",
            f"{g.m - len(psi)} of {g.m} edges are uncoloured",
        )
    clash = find_properness_clash(g, psi)
    if clash is not None:
        v, c, edges = clash
        _fail_precondition(
            "proper-colouring",
            f"colour {c} repeats on edges at vertex {v}",
            edges,
        )


def _check_rainbow_edges(psi: EdgeColouring, keys, check: str, label: str) -> None:
    """The colours of the edges `keys` must be pairwise distinct; the
    first repeat fails precondition `check`, naming the two `label` edges."""
    cols = psi.colours(keys)
    if len(set(cols)) != len(cols):
        seen: dict[int, tuple[int, int]] = {}
        for k, c in zip(keys, cols):
            if c in seen:
                _fail_precondition(
                    check,
                    f"{label} edges {seen[c]} and {k} share colour {c}",
                    (seen[c], k, c),
                )
            seen[c] = k


def _check_cross_avoids_side(psi: EdgeColouring, cross_colours: set[int], side_keys):
    side_cols = psi.colours(side_keys)
    leaked = cross_colours.intersection(side_cols)
    if leaked:
        c = min(leaked)
        edges = [k for k, kc in zip(side_keys, side_cols) if kc == c]
        _fail_precondition(
            "cross-avoids-side",
            f"colour {c} appears both on a cross edge and on side edges {edges}",
            (c, tuple(edges)),
        )


def _check_cross_block(psi: EdgeColouring, scaffold) -> None:
    """The cross checks of the K6/K7 scaffolds, whose `cross_keys` are the
    whole cross block of their join, row by row: the cross edges have
    pairwise distinct colours, none of them on a `left_keys` edge.  psi is
    total.  The block is read once; the key walks that name the first
    offence run only when a check fails.

    On an overlay with no cross cell written, of a base whose cross block
    is certified (`_cross_certificate`), only the written left keys are
    read.  The cross block is the base's, so it is rainbow.  A left key
    not written has its base colour, which the certificate puts outside
    the cross colours; a left key uncoloured in the base was written,
    psi being total.  So a leak can only sit on a written left key.  When
    that shortcut does not apply, or a written left key leaks, the full
    check below runs and reports as it always has.
    """
    view = psi.overlay()
    if view is not None:
        base, written, cross_written = view
        certificate = None if cross_written else _cross_certificate(base, scaffold)
        if certificate is not None:
            ranked, left = certificate
            if not _occurs_in(ranked, psi.colours(written & left)):
                return
    block = np.sort(psi.cross_block(), axis=None)
    if (block[1:] == block[:-1]).any():
        _check_rainbow_edges(psi, scaffold.cross_keys, "cross-rainbow", "cross")
    if _occurs_in(block, psi.colours(scaffold.left_keys)):
        _check_cross_avoids_side(psi, set(block.tolist()), scaffold.left_keys)


@lru_cache(maxsize=4)
def _cross_certificate(base: EdgeColouring, scaffold):
    """(sorted cross colours, set of `left_keys`) of the frozen colouring
    `base` of the K6/K7 scaffold when its cross block is fully coloured
    and rainbow and no coloured left key of `base` wears a cross colour;
    None otherwise.  Computed once per (base, scaffold)."""
    ranked = np.sort(base.cross_block(), axis=None)
    if not ranked.size or ranked[0] < 0 or (ranked[1:] == ranked[:-1]).any():
        return None
    side = [c for c in (base.get(u, v) for u, v in scaffold.left_keys) if c is not None]
    if _occurs_in(ranked, side):
        return None
    return ranked, frozenset(scaffold.left_keys)


def _occurs_in(ranked: np.ndarray, colours) -> bool:
    """Does one of `colours` occur in the sorted, non-empty array `ranked`?"""
    colours = np.array(colours, dtype=np.int64)
    at = np.searchsorted(ranked, colours).clip(max=ranked.size - 1)
    return bool((ranked[at] == colours).any())


def _validated_rainbow_clique(g: Graph, psi: EdgeColouring, vs, what: str):
    """Assert-on-return gate: vs must induce a clique with pairwise
    distinct edge colours.  Returns the sorted vertex tuple."""
    vs = tuple(sorted(vs))
    cols = []
    for i, u in enumerate(vs):
        for v in vs[i + 1 :]:
            if not g.has_edge(u, v):
                _counterexample(
                    f"{what}: output is not a clique, missing edge ({u},{v})",
                    g,
                    psi,
                    vertices=vs,
                )
            cols.append(psi.get(u, v))
    if len(set(cols)) != len(cols):
        _counterexample(
            f"{what}: output clique is not rainbow",
            g,
            psi,
            vertices=vs,
            colours=cols,
        )
    return vs


# -- rainbow K4 from the star join -------------------------------------------


def extract_rainbow_k4(scaffold: StarJoinScaffold, psi: EdgeColouring) -> tuple[int, ...]:
    """Rainbow K4 inside the star join, given any proper colouring.

    The right-star edges show four distinct colours while the left star
    uses at most three, so a right edge e with a colour unused on the
    left exists.  Among the three candidate cliques (left edge + e) at
    most two can clash, because the clashes pin distinct colours at the
    two ends of e.
    """
    g = scaffold.graph
    _check_total_proper(g, psi)
    left_cols = set(psi.colours(scaffold.left_edges()))
    fresh_edge = None
    for z, c in zip(scaffold.right_leaves, psi.colours(scaffold.right_edges())):
        if c not in left_cols:
            fresh_edge = (scaffold.right_centre, z)
            break
    if fresh_edge is None:
        _counterexample(
            "every right-star colour reappears on the smaller left star",
            g,
            psi,
        )
    y1, y2 = fresh_edge
    for x in scaffold.left_leaves:
        quad = (scaffold.left_centre, x, y1, y2)
        cols = psi.colours([_norm(u, v) for i, u in enumerate(quad) for v in quad[i + 1 :]])
        if len(set(cols)) == 6:
            return _validated_rainbow_clique(g, psi, quad, "rainbow-k4")
    _counterexample(
        "no left edge completes the colour-fresh right edge to a rainbow clique",
        g,
        psi,
        fresh_edge=fresh_edge,
    )


# -- rainbow K5 from the triangle-star join ----------------------------------


def extract_rainbow_k5(scaffold: TriangleStarScaffold, psi: EdgeColouring) -> tuple[int, ...]:
    """Rainbow K5 when everything except the star edges is rainbow.

    The four star-edge colours are distinct (they share the star
    centre), so one of them avoids the three triangle colours; that
    leaf, the star centre and the triangle induce a rainbow K5.
    """
    g = scaffold.graph
    _check_total_proper(g, psi)
    _check_rainbow_edges(psi, scaffold.core_keys, "rainbow-core", "core")
    tri_cols = _triangle_colours(psi, scaffold.triangle)
    for z, c in zip(scaffold.star_leaves, psi.colours(scaffold.star_edges())):
        if c not in tri_cols:
            vs = scaffold.triangle + (scaffold.star_centre, z)
            return _validated_rainbow_clique(g, psi, vs, "rainbow-k5")
    _counterexample(
        "all four distinct star colours land inside the three triangle colours",
        g,
        psi,
    )


# -- colour-disjoint triangle pair (cherry vs fan) ----------------------------


def _triangle_pair_core(psi: EdgeColouring, cherry: DoubleTriangleCherry, fan: TriangleFan):
    """Fan-triangle index and cherry triangle with disjoint colour sets.

    Requires psi to be proper on the cherry and fan edges (they may sit
    inside a larger graph).  Case split:

    * At most six fan triangles have a hub-side colour among the six
      cherry-hub colours, so at least four survive; their base colours
      are inspected.
    * If two surviving bases share a colour g, then g misses one of the
      two cherry-hub colour triples entirely; on that side one of the
      two pendant triangles avoids g, and of the two fan triangles at
      most one sees that pendant colour on its hub edges.
    * If all four bases differ, one of the candidate cherry triangles
      has at most one of its two hub colours among the bases (four
      distinct bases cannot dominate all candidate pairs), and at most
      two more fan triangles are polluted by its pendant colour.
    """
    g = psi.graph

    u1, u2, u3 = cherry.left, cherry.hub, cherry.right
    w1, w2 = cherry.left_tips
    w3, w4 = cherry.right_tips

    # hub edges, pendant edges, then each fan triangle's two hub-side edges,
    # then each fan triangle's base
    x = fan.hub
    cols = psi.colours(
        [_norm(u1, u2), _norm(u2, w1), _norm(u2, w2), _norm(u2, w3), _norm(u2, w4),
         _norm(u2, u3), _norm(u1, w1), _norm(u1, w2), _norm(u3, w3), _norm(u3, w4)]
        + [_norm(x, v) for pair in fan.rim for v in pair]
        + [_norm(a, b) for a, b in fan.rim]
    )
    h_left, h_l1, h_l2, h_r1, h_r2, h_right, p_l1, p_l2, p_r3, p_r4 = cols[:10]
    bases = 10 + 2 * len(fan.rim)
    spoke = list(zip(cols[10:bases:2], cols[11:bases:2]))
    base_cols = cols[bases:]
    hub_cols = {h_left, h_l1, h_l2, h_r1, h_r2, h_right}
    if len(hub_cols) != 6:
        _counterexample("cherry hub colours not distinct under a proper colouring", g, psi)

    surviving = [
        i for i, (ca, cb) in enumerate(spoke) if ca not in hub_cols and cb not in hub_cols
    ]
    if len(surviving) < 4:
        _counterexample(
            "fewer than four fan triangles avoid the six cherry-hub colours",
            g,
            psi,
            surviving=tuple(surviving),
        )
    s4 = surviving[:4]
    base = {i: base_cols[i] for i in s4}

    dup = None
    for ii in range(4):
        for jj in range(ii + 1, 4):
            if base[s4[ii]] == base[s4[jj]]:
                dup = (s4[ii], s4[jj])
                break
        if dup:
            break

    if dup is not None:
        i, j = dup
        shared = base[i]
        if shared not in (h_left, h_l1, h_l2):
            options = [((u1, u2, w1), p_l1), ((u1, u2, w2), p_l2)]
        else:
            options = [((u2, u3, w3), p_r3), ((u2, u3, w4), p_r4)]
        tri2, pendant = options[0] if shared != options[0][1] else options[1]
        for k in (i, j):
            if pendant not in spoke[k]:
                return k, tri2
        _counterexample(
            "pendant colour polluted both base-sharing fan triangles",
            g,
            psi,
            pendant=pendant,
            triangles=dup,
        )

    candidates = [
        ((u1, u2, w1), (h_left, h_l1), p_l1),
        ((u1, u2, w2), (h_left, h_l2), p_l2),
        ((u2, u3, w3), (h_right, h_r1), p_r3),
        ((u2, u3, w4), (h_right, h_r2), p_r4),
    ]
    for tri2, pair, pendant in candidates:
        if sum(base[k] in pair for k in s4) > 1:
            continue
        for k in s4:
            if base[k] in pair or base[k] == pendant or pendant in spoke[k]:
                continue
            return k, tri2
    _counterexample(
        "four distinct base colours blocked every cherry-triangle candidate",
        g,
        psi,
        bases=tuple(base[k] for k in s4),
    )


def _triangle_colours(psi: EdgeColouring, tri) -> set[int]:
    a, b, c = tri
    return set(psi.colours((_norm(a, b), _norm(a, c), _norm(b, c))))


def disjoint_colour_triangles(
    instance: TrianglePairInstance, psi: EdgeColouring
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """A fan triangle and a cherry triangle with disjoint colour sets,
    for any proper colouring of the disjoint union."""
    g = instance.graph
    _check_total_proper(g, psi)
    k, tri2 = _triangle_pair_core(psi, instance.cherry, instance.fan)
    q1 = tuple(sorted(instance.fan.triangle(k)))
    q2 = tuple(sorted(tri2))
    if _triangle_colours(psi, q1) & _triangle_colours(psi, q2):
        _counterexample(
            "returned triangles share a colour",
            g,
            psi,
            fan_triangle=q1,
            cherry_triangle=q2,
        )
    return q1, q2


# -- rainbow K6 from 31 cherries joined to the fan ----------------------------


def extract_rainbow_k6(scaffold: RainbowK6Scaffold, psi: EdgeColouring) -> tuple[int, ...]:
    """Rainbow K6 when the cross is rainbow and avoids the cherry colours.

    Each cherry votes for a fan triangle via the colour-disjoint pair;
    31 votes on 10 triangles put four vertex-disjoint cherry triangles
    on one fan triangle Q.  The rainbow cross carries each of Q's three
    colours at most once, so one of the four cross blocks is clean.
    """
    g = scaffold.graph
    _check_total_proper(g, psi)
    _check_cross_block(psi, scaffold)

    votes: dict[int, list[tuple[int, int, int]]] = {}
    for cherry in scaffold.cherries:
        k, tri2 = _triangle_pair_core(psi, cherry, scaffold.fan)
        votes.setdefault(k, []).append(tri2)
        if len(votes[k]) == 4:
            chosen_k, cherry_tris = k, votes[k]
            break
    else:
        _counterexample(
            "31 cherry votes failed to give any fan triangle four supporters",
            g,
            psi,
            votes={k: len(v) for k, v in votes.items()},
        )
    q = scaffold.fan.triangle(chosen_k)
    q_cols = _triangle_colours(psi, q)
    for tri2 in cherry_tris:
        cross_block = set(psi.colours([_norm(u, w) for u in tri2 for w in q]))
        if not (cross_block & q_cols):
            return _validated_rainbow_clique(g, psi, tri2 + q, "rainbow-k6")
    _counterexample(
        "all four disjoint cherry triangles clash with the common fan triangle",
        g,
        psi,
        fan_triangle=tuple(sorted(q)),
    )


# -- surviving triangle of the spoked fan -------------------------------------


def _surviving_triangle_core(
    g: Graph, psi, fan: SpokedTriangleFan, is_removed, context: str
):
    """The first fan triangle, spoke by spoke and then apex by apex, none
    of whose edges `is_removed` (a test on fan keys)."""
    for i, s in enumerate(fan.spokes):
        if is_removed(_norm(fan.centre, s)):
            continue
        for p in fan.apexes[i]:
            if not is_removed(_norm(fan.centre, p)) and not is_removed(_norm(s, p)):
                return (fan.centre, s, p)
        _counterexample(
            f"{context}: surviving skeleton edge lost all its pendant triangles",
            g,
            psi,
            spoke=s,
            removed_count=sum(map(is_removed, fan.edges())),
        )
    _counterexample(
        f"{context}: every skeleton edge was removed by at most {SPOKES - 1} matchings",
        g,
        psi,
        removed_count=sum(map(is_removed, fan.edges())),
    )


def surviving_triangle(instance: SpokedFanInstance, matchings) -> tuple[int, int, int]:
    """A triangle of the spoked fan untouched by the given matchings.

    Accepts at most one matching fewer than there are spokes; each one
    removes at most one skeleton edge and at most two pendant triangles
    per spoke, which the spoke/triangle counts outlast.
    """
    g = instance.graph
    fan = instance.roles
    matchings = [tuple(_norm(u, v) for u, v in m) for m in matchings]
    if len(matchings) > SPOKES - 1:
        raise ParameterError(
            f"at most {SPOKES - 1} matchings supported, got {len(matchings)}"
        )
    removed: set[tuple[int, int]] = set()
    for idx, m in enumerate(matchings):
        used: set[int] = set()
        for u, v in m:
            if not g.has_edge(u, v):
                raise ParameterError(f"matching {idx} contains a non-edge ({u},{v})")
            if u in used or v in used:
                raise ParameterError(
                    f"input {idx} is not a matching: vertex reuse at ({u},{v})"
                )
            used.update((u, v))
        removed.update(m)
    tri = _surviving_triangle_core(g, None, fan, removed.__contains__, "surviving-triangle")
    for e in ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2])):
        if _norm(*e) in removed or not g.has_edge(*e):
            _counterexample("returned triangle is not intact", g, None, triangle=tri)
    return tri


# -- rainbow K7 from four blocks joined to the spoked fan ---------------------


def rainbow_k4_in_block(psi: EdgeColouring, block: JoinedTriangleBlock) -> tuple[int, ...]:
    """Rainbow K4 inside one triangle-join block under any proper colouring.

    For each free vertex the only possible clashes pair a cross edge
    with the opposite triangle edge; each of the three clash patterns
    rules out at most one of the four free vertices.
    """
    x1, x2, x3 = block.triangle
    # block.edges(): the triangle x1x2, x1x3, x2x3, then x1z, x2z, x3z per z
    t12, t13, t23, *cross = psi.colours(block.edges())
    for i, z in enumerate(block.free):
        if (
            cross[3 * i] != t23
            and cross[3 * i + 1] != t13
            and cross[3 * i + 2] != t12
        ):
            return (x1, x2, x3, z)
    _counterexample(
        "all four free vertices clash with the opposite triangle edges",
        psi.graph,
        psi,
        block=block.vertices(),
    )


def extract_rainbow_k7(scaffold: RainbowK7Scaffold, psi: EdgeColouring) -> tuple[int, ...]:
    """Rainbow K7 when the cross is rainbow and avoids the block colours.

    Each block yields a rainbow K4; pruning every fan edge coloured like
    one of those (at most 24) K4 edges deletes at most 24 matchings, so
    a fan triangle survives.  Its three colours touch at most three
    cross edges, leaving one block's cross clean.

    The survivor is found by `surviving_triangle`'s scan, spoke by spoke
    and then apex by apex, which reads the colours of the fan edges it
    tests and of no others.
    """
    g = scaffold.graph
    _check_total_proper(g, psi)
    _check_cross_block(psi, scaffold)

    quads = []
    bad_cols: set[int] = set()
    for block in scaffold.blocks:
        quad = rainbow_k4_in_block(psi, block)
        quads.append(quad)
        bad_cols.update(
            psi.colours([_norm(u, v) for i, u in enumerate(quad) for v in quad[i + 1 :]])
        )
    if len(bad_cols) > SPOKES - 1:
        _counterexample(
            "four rainbow K4s produced more prunable colours than edges",
            g,
            psi,
            colours=len(bad_cols),
        )

    tri = _surviving_triangle_core(
        g, psi, scaffold.fan, lambda k: psi.get(*k) in bad_cols, "rainbow-k7")
    tri_cols = _triangle_colours(psi, tri)

    for quad in quads:
        cross_block = set(psi.colours([_norm(u, w) for u in quad for w in tri]))
        if not (cross_block & tri_cols):
            return _validated_rainbow_clique(g, psi, quad + tri, "rainbow-k7")
    _counterexample(
        "all four block cliques clash with the surviving fan triangle",
        g,
        psi,
        triangle=tri,
    )


# -- trial samplers -----------------------------------------------------------


def sample_rainbow_k4_colouring(scaffold: StarJoinScaffold, rng: random.Random) -> EdgeColouring:
    return random_proper_colouring(scaffold.graph, rng, rng.random())


def sample_rainbow_k5_colouring(
    scaffold: TriangleStarScaffold, rng: random.Random
) -> EdgeColouring:
    """Rainbow core; star edges reuse core colours whenever legal."""
    psi = EdgeColouring(scaffold.graph)
    for k in scaffold.core_keys:
        psi.assign_fresh(*k)
    core_count = psi.next_colour
    for z in scaffold.star_leaves:
        blocked = psi.colours_at(scaffold.star_centre) | psi.colours_at(z)
        pool = [c for c in range(core_count) if c not in blocked]
        if pool and rng.random() < 0.85:
            psi.assign(scaffold.star_centre, z, rng.choice(pool))
        else:
            psi.assign_fresh(scaffold.star_centre, z)
    return psi


def sample_triangle_pair_colouring(
    instance: TrianglePairInstance, rng: random.Random
) -> EdgeColouring:
    bias = rng.choice((0.0, 0.0, 0.05, 0.2, 0.5))
    return random_proper_colouring(instance.graph, rng, bias)


class _LegalPool(dict):
    """blocked bitmask -> the pool colours 0 .. size - 1 whose bit is clear,
    ascending.  A list is built on its first lookup and kept, so a trial
    builds each one once."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, blocked: int) -> list[int]:
        size = self.size
        if 2 * blocked.bit_count() < size:  # few blocked: delete them
            legal = list(range(size))
            rest = blocked
            while rest:  # highest first, so each is still at its own index
                top = rest.bit_length() - 1
                del legal[top]
                rest ^= 1 << top
        else:  # few legal: collect them, lowest first
            legal = []
            free = ((1 << size) - 1) & ~blocked
            while free:
                low = free & -free
                legal.append(low.bit_length() - 1)
                free ^= low
        self[blocked] = legal
        return legal


def _greedy_pool_colouring(edge_keys, legal_pool: _LegalPool, reuse_p, rng, fresh: int):
    """Proper colours for `edge_keys`, in order: with probability reuse_p
    a uniform pick from the pool colours legal at the edge (when there is
    one), else the next fresh id, counting up from `fresh`.  Returns the
    colours and the next unused fresh id.

    Pool ids sit below every other palette in use, so only pool colours
    placed by this pass can conflict; fresh ids never can.
    """
    used: dict[int, int] = {}  # vertex -> bitmask of its pool colours
    rand, choice = rng.random, rng.choice
    out = []
    for u, v in edge_keys:
        if rand() < reuse_p:
            bu = used.get(u, 0)
            bv = used.get(v, 0)
            legal = legal_pool[bu | bv]
            if legal:
                c = choice(legal)
                used[u] = bu | 1 << c
                used[v] = bv | 1 << c
                out.append(c)
                continue
        out.append(fresh)
        fresh += 1
    return out, fresh


def _colour_cross_keys(psi: EdgeColouring, cross_keys) -> None:
    """Unique cross colours on the high palette, in key order."""
    base = _CROSS_PALETTE_BASE
    psi.assign_many(cross_keys, range(base, base + len(cross_keys)))


@lru_cache(maxsize=None)
def _k6_cross_template() -> EdgeColouring:
    """Cross edges on the unique high palette, frozen: trials colour
    copies of it, whose checks then read only what the trial wrote."""
    sc = rainbow_k6_scaffold()
    psi = EdgeColouring(sc.graph)
    _colour_cross_keys(psi, sc.cross_keys)
    return psi.freeze()


def sample_rainbow_k6_colouring(
    scaffold: RainbowK6Scaffold, rng: random.Random
) -> EdgeColouring:
    """Unique cross colours; cherry and fan edges share a small pool so
    the pair extraction sees genuine colour collisions."""
    if scaffold is not rainbow_k6_scaffold():
        raise ParameterError("sampler supports only the scaffold rainbow_k6_scaffold() returns")
    psi = _k6_cross_template().copy()
    legal_pool = _LegalPool(rng.randrange(8, 32))
    reuse = rng.choice((0.6, 0.9, 1.0))
    # The cherries are vertex-disjoint, so one pass over `left_keys` (the
    # cherries' edges, cherry by cherry) colours as one pass per cherry.
    left, fresh = _greedy_pool_colouring(
        scaffold.left_keys, legal_pool, reuse, rng, psi.next_colour)
    right, _ = _greedy_pool_colouring(scaffold.right_keys, legal_pool, reuse, rng, fresh)
    psi.assign_many(scaffold.left_keys + scaffold.right_keys, left + right)
    return psi


def sample_fan_matchings(instance: SpokedFanInstance, rng: random.Random) -> list:
    """Random batches of matchings biased toward the skeleton and a few
    hot spokes, the edges a matching must hit to threaten triangles."""
    g = instance.graph
    fan = instance.roles
    all_edges = g.edges
    count = SPOKES - 1 if rng.random() < 0.6 else rng.randrange(0, SPOKES)
    hot_spokes = [rng.randrange(SPOKES) for _ in range(3)]
    matchings = []
    for _ in range(count):
        used: set[int] = set()
        m: list[tuple[int, int]] = []

        def try_add(u, v):
            if u not in used and v not in used:
                m.append(_norm(u, v))
                used.update((u, v))

        if rng.random() < 0.7:
            i = rng.choice(hot_spokes) if rng.random() < 0.5 else rng.randrange(SPOKES)
            try_add(fan.centre, fan.spokes[i])
        if rng.random() < 0.7:
            i = rng.choice(hot_spokes)
            try_add(fan.spokes[i], fan.apexes[i][rng.randrange(TRIANGLES_PER_SPOKE)])
        target = rng.choice((1, 2, 3, 5, 8, 13, 40))
        for _ in range(3 * target):
            if len(m) >= target:
                break
            try_add(*all_edges[rng.randrange(len(all_edges))])
        matchings.append(m)
    return matchings


@lru_cache(maxsize=None)
def _k7_template() -> EdgeColouring:
    """Cross edges on the unique high palette, fan edges pre-coloured
    with unique ids, frozen; trials overwrite a sparse subset of fan edges
    on copies of it."""
    sc = rainbow_k7_scaffold()
    psi = EdgeColouring(sc.graph)
    _colour_cross_keys(psi, sc.cross_keys)
    first = psi.next_colour
    psi.assign_many(sc.right_keys, range(first, first + len(sc.right_keys)))
    return psi.freeze()


def sample_rainbow_k7_colouring(
    scaffold: RainbowK7Scaffold, rng: random.Random
) -> EdgeColouring:
    """Unique cross colours; block edges use a small pool which is also
    sprinkled over the fan so colour pruning genuinely happens."""
    if scaffold is not rainbow_k7_scaffold():
        raise ParameterError("sampler supports only the scaffold rainbow_k7_scaffold() returns")
    psi = _k7_template().copy()
    size = rng.randrange(8, 20)
    # the blocks are vertex-disjoint: one pass colours as one per block
    colours, _ = _greedy_pool_colouring(
        scaffold.left_keys, _LegalPool(size), 0.95, rng, psi.next_colour)
    keys = list(scaffold.left_keys)

    fan = scaffold.fan
    rand, choice = rng.random, rng.choice
    centre = fan.centre
    # the pool colours still legal at the centre and at the current spoke,
    # ascending; each pick removes its colour from them
    centre_legal = list(range(size))
    for i, s in enumerate(fan.spokes):
        spoke_legal = list(range(size))
        if rand() < 0.2 and centre_legal:
            c = choice(centre_legal)
            keys.append((centre, s))
            colours.append(c)
            centre_legal.remove(c)
            spoke_legal.remove(c)
        for p in fan.apexes[i]:
            # (centre, p) keeps its template colour unless picked here; the
            # template's fan ids lie above every pool id, so only a pool
            # pick there blocks a colour on (s, p)
            legal = spoke_legal
            if rand() < 0.15 and centre_legal:
                c = choice(centre_legal)
                keys.append((centre, p))
                colours.append(c)
                centre_legal.remove(c)
                if c in spoke_legal:
                    legal = [x for x in spoke_legal if x != c]
            if rand() < 0.4 and legal:
                c = choice(legal)
                keys.append((s, p))
                colours.append(c)
                spoke_legal.remove(c)
    psi.recolour_many(keys, colours)
    return psi


# -- falsification harness ----------------------------------------------------


@dataclass
class LemmaTrialReport:
    lemma: str
    trials: int
    failures: int
    seed: int
    elapsed_ms: float
    archive: str | None

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        """Everything but `elapsed_ms`, so a report is reproducible."""
        return {
            "lemma": self.lemma,
            "trials": self.trials,
            "failures": self.failures,
            "seed": self.seed,
            "passed": self.passed,
            "archive": self.archive,
        }


_LEMMAS = {
    "extract-rainbow-k4": (rainbow_k4_scaffold, sample_rainbow_k4_colouring, extract_rainbow_k4),
    "extract-rainbow-k5": (rainbow_k5_scaffold, sample_rainbow_k5_colouring, extract_rainbow_k5),
    "disjoint-colour-triangles": (
        triangle_pair_instance,
        sample_triangle_pair_colouring,
        disjoint_colour_triangles,
    ),
    "extract-rainbow-k6": (rainbow_k6_scaffold, sample_rainbow_k6_colouring, extract_rainbow_k6),
    "surviving-triangle": (spoked_fan_instance, sample_fan_matchings, surviving_triangle),
    "extract-rainbow-k7": (rainbow_k7_scaffold, sample_rainbow_k7_colouring, extract_rainbow_k7),
}

LEMMA_NAMES = tuple(_LEMMAS)


def _archive_counterexample(archive_dir, lemma, seed, trial, exc) -> str | None:
    if archive_dir is None:
        return None
    path = Path(archive_dir)
    path.mkdir(parents=True, exist_ok=True)
    target = path / f"{lemma}-seed{seed}-trial{trial}.json"
    record = {
        "lemma": lemma,
        "seed": seed,
        "trial": trial,
        "message": str(exc),
        "payload": exc.payload,
    }
    target.write_text(json.dumps(record, indent=2, sort_keys=True))
    return str(target)


def certify_lemma(
    name: str, trials: int, seed: int, archive_dir=None
) -> LemmaTrialReport:
    """Run `trials` randomized falsification attempts against one lemma.

    Stops at the first counterexample, archiving it when a directory is
    given.  Sampler inputs are derived from (name, seed, trial) so runs
    are reproducible and trial-order independent.
    """
    if name not in _LEMMAS:
        raise ParameterError(
            f"unknown lemma {name!r}; choose one of {', '.join(LEMMA_NAMES)}"
        )
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    build, sample, run = _LEMMAS[name]
    inst = build()
    failures = 0
    archive = None
    start = time.perf_counter()
    for trial in range(trials):
        rng = random.Random(f"{name}:{seed}:{trial}")
        args = sample(inst, rng)
        try:
            run(inst, args)
        except CounterexampleFound as exc:
            failures += 1
            archive = _archive_counterexample(archive_dir, name, seed, trial, exc)
            break
    elapsed = (time.perf_counter() - start) * 1000.0
    return LemmaTrialReport(name, trials, failures, seed, elapsed, archive)
