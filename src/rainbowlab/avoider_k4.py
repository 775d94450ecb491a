"""Rainbow-K4-avoiding proper colouring of a perturbed bipartite seed.

Works whenever every component of the random perturbation inside each
part is one of K1, K2, P3, K13 (the 3-leaf star) or P4.  Inside edges
reuse the shared colours 1,2,3; every pair of opposite-part components
gets a private palette for its complete bipartite cross block, filled
from a fixed table that leaves no K4 rainbow.

Any K4 in such an instance has two vertices in each part (the component
kinds are triangle-free), so its inside edges live in one component per
part and its four cross edges inside a single pair block; the tables are
checked exhaustively for all kind pairs in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .colouring import EdgeColouring
from .errors import ParameterError, StructureUnsupported
from .graph import Graph, components
from .model import PerturbedInstance

__all__ = [
    "Component",
    "colour_inside",
    "cross_table",
    "avoid_k4",
]

PATH_KINDS = {"K2", "P3", "P4"}


@dataclass(frozen=True)
class Component:
    """kind in {K1,K2,P3,K13,P4}; vertices ordered by role:
    K13 lists the centre first, paths are in path order (smaller end first),
    P3's middle vertex sits at index 1."""

    kind: str
    vertices: tuple[int, ...]


def _classify_one(sub: Graph, back: list[int]) -> Component:
    n, m = sub.n, sub.m
    if n == 1:
        return Component("K1", (back[0],))
    if n == 2 and m == 1:
        return Component("K2", tuple(sorted(back)))
    if n == 3 and m == 2:
        mid = next(v for v in range(3) if sub.degree(v) == 2)
        ends = sorted(v for v in range(3) if v != mid)
        return Component("P3", (back[ends[0]], back[mid], back[ends[1]]))
    if n == 4 and m == 3:
        degs = sorted(sub.degree(v) for v in range(4))
        if degs == [1, 1, 1, 3]:
            centre = next(v for v in range(4) if sub.degree(v) == 3)
            leaves = sorted(back[v] for v in range(4) if v != centre)
            return Component("K13", (back[centre], *leaves))
        if degs == [1, 1, 2, 2]:
            ends = sorted((v for v in range(4) if sub.degree(v) == 1),
                          key=lambda v: back[v])
            order = [ends[0]]
            while len(order) < 4:
                nxt = next(u for u in sub.neighbours(order[-1]) if u not in order)
                order.append(nxt)
            return Component("P4", tuple(back[v] for v in order))
    raise StructureUnsupported(
        f"component on {n} vertices with {m} edges is outside the supported kinds",
        offending=tuple(sorted(back)),
    )


def classify_components(random_edges: Graph) -> list[Component]:
    """Every component of the random part, K1s included, classified.
    `avoid_k4` classifies through `_roles` instead, which makes no
    `Component` for an isolated vertex."""
    return [_classify_one(sub, back) for sub, back in components(random_edges)]


def colour_inside(c: Component) -> dict[tuple[int, int], int]:
    """Edge colours within one component: consecutive 1,2,3 in role order,
    so a P4's middle edge always gets colour 2."""
    vs = c.vertices
    if c.kind == "K1":
        return {}
    if c.kind == "K2":
        return {_k(vs[0], vs[1]): 1}
    if c.kind == "P3":
        return {_k(vs[0], vs[1]): 1, _k(vs[1], vs[2]): 2}
    if c.kind == "K13":
        return {_k(vs[0], vs[i]): i for i in (1, 2, 3)}
    if c.kind == "P4":
        return {_k(vs[i], vs[i + 1]): i + 1 for i in range(3)}
    raise StructureUnsupported(f"unknown component kind {c.kind}")


def _k(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# role index 0..3 stands for the four colours shared inside one pair block;
# missing cells take a private fresh colour each
_T_K13_K13 = {
    ("x1", "x2"): 0, ("y", "y"): 0, ("x2", "x3"): 0, ("x3", "x1"): 0,
    ("y", "x2"): 1, ("x3", "y"): 1,
    ("x1", "y"): 2, ("y", "x3"): 2,
    ("x2", "y"): 3, ("y", "x1"): 3,
}
_T_K13_P4 = {
    ("y", "x1"): 0, ("x2", "x2"): 0,
    ("y", "x4"): 1, ("x2", "x3"): 1,
    ("x1", "x3"): 2, ("y", "x2"): 2, ("x3", "x1"): 2,
    ("x1", "x4"): 3, ("y", "x3"): 3, ("x3", "x2"): 3,
}
_T_P4_P4 = {
    ("x1", "x3"): 0, ("x2", "x4"): 0, ("x3", "x1"): 0, ("x4", "x2"): 0,
    ("x1", "x2"): 1, ("x2", "x3"): 1, ("x3", "x4"): 1,
    ("x2", "x1"): 2, ("x3", "x2"): 2, ("x4", "x3"): 2,
}

_K13_LABELS = ("y", "x1", "x2", "x3")
_P4_LABELS = ("x1", "x2", "x3", "x4")


def _host(c: Component, other_kind: str) -> tuple[str, dict[int, str]]:
    """Host pattern (K13 or P4) and the label of each component vertex in it."""
    vs = c.vertices
    if c.kind == "K13":
        return "K13", dict(zip(vs, _K13_LABELS))
    if c.kind == "P4":
        return "P4", dict(zip(vs, _P4_LABELS))
    if c.kind == "P3":
        return "P4", dict(zip(vs, _P4_LABELS[:3]))
    if c.kind == "K2":
        if other_kind in PATH_KINDS:
            return "P4", dict(zip(vs, _P4_LABELS[:2]))
        return "K13", dict(zip(vs, _K13_LABELS[:2]))
    if c.kind == "K1":
        return "K13", {vs[0]: "y"}
    raise StructureUnsupported(f"unknown component kind {c.kind}")


def _table_for(host_l: str, host_r: str):
    """Role table plus a flag for swapped lookup order."""
    if (host_l, host_r) == ("K13", "K13"):
        return _T_K13_K13, False
    if (host_l, host_r) == ("K13", "P4"):
        return _T_K13_P4, False
    if (host_l, host_r) == ("P4", "K13"):
        return _T_K13_P4, True
    return _T_P4_P4, False


def cross_palette_size(left: Component, right: Component) -> int:
    """4 role colours plus one fresh colour per untabled cell."""
    host_l, lab_l = _host(left, right.kind)
    host_r, lab_r = _host(right, left.kind)
    table, swap = _table_for(host_l, host_r)
    fresh = 0
    for u in left.vertices:
        for w in right.vertices:
            key = (lab_r[w], lab_l[u]) if swap else (lab_l[u], lab_r[w])
            if key not in table:
                fresh += 1
    return 4 + fresh


def cross_table(left: Component, right: Component, palette) -> dict[tuple[int, int], int]:
    """Colours for all cross edges between the two components.

    palette[0..3] are the shared role colours of this block; the rest of
    the palette feeds the untabled cells one fresh colour each.
    """
    palette = list(palette)
    need = cross_palette_size(left, right)
    if len(palette) < need:
        raise ParameterError(f"palette of size {len(palette)} is too small, need {need}")
    host_l, lab_l = _host(left, right.kind)
    host_r, lab_r = _host(right, left.kind)
    table, swap = _table_for(host_l, host_r)
    out: dict[tuple[int, int], int] = {}
    nxt = 4
    for u in left.vertices:
        for w in right.vertices:
            key = (lab_r[w], lab_l[u]) if swap else (lab_l[u], lab_r[w])
            role = table.get(key)
            if role is None:
                out[_k(u, w)] = palette[nxt]
                nxt += 1
            else:
                out[_k(u, w)] = palette[role]
    return out


# vertex count of each supported kind; the order fixes the kind indices
_KIND_VERTICES = {"K1": 1, "K2": 2, "P3": 3, "K13": 4, "P4": 4}
_KIND_INDEX = {kind: i for i, kind in enumerate(_KIND_VERTICES)}


def _block_tables() -> tuple[np.ndarray, np.ndarray]:
    """Palette size of the cross block of every kind pair, and the palette
    offset of each cell (kind, kind, role, role) in it.  Read off
    cross_palette_size and cross_table, so those stay the single source."""
    k = len(_KIND_VERTICES)
    sizes = np.zeros((k, k), dtype=np.int64)
    offsets = np.zeros((k, k, 4, 4), dtype=np.int64)
    for i, (kind_a, size_a) in enumerate(_KIND_VERTICES.items()):
        a = Component(kind_a, tuple(range(size_a)))
        for j, (kind_b, size_b) in enumerate(_KIND_VERTICES.items()):
            b = Component(kind_b, tuple(range(4, 4 + size_b)))
            sizes[i, j] = cross_palette_size(a, b)
            for (x, y), offset in cross_table(a, b, range(sizes[i, j])).items():
                offsets[i, j, x, y - 4] = offset
    return sizes, offsets


_BLOCK_SIZES, _BLOCK_OFFSETS = _block_tables()


def _roles(part: Graph) -> tuple[list[Component], np.ndarray, np.ndarray, np.ndarray]:
    """The part's components other than K1s, the kind index of every
    component, and the component and role position of each vertex.  An
    isolated vertex is a K1 at role 0 and gets no `Component`."""
    shaped: list[Component] = []
    kind = []
    comp = [0] * part.n
    role = [0] * part.n
    for i, (sub, back) in enumerate(components(part)):
        if sub.n == 1:
            kind.append(_KIND_INDEX["K1"])
            comp[back[0]] = i
            continue
        c = _classify_one(sub, back)
        shaped.append(c)
        kind.append(_KIND_INDEX[c.kind])
        for r, v in enumerate(c.vertices):
            comp[v] = i
            role[v] = r
    return (shaped, np.array(kind, dtype=np.int64), np.array(comp, dtype=np.int64),
            np.array(role, dtype=np.int64))


def avoid_k4(instance: PerturbedInstance) -> EdgeColouring:
    """Total proper colouring of the instance with no rainbow K4.

    Raises StructureUnsupported when some perturbation component falls
    outside the five supported kinds (the construction's regime).

    Each pair of opposite components owns the palette block that follows
    the previous pair's, in (left component, right component) row-major
    order from colour 4; a cross edge's colour is its block's start plus
    its table offset.
    """
    off = instance.u_size
    left, kind_l, comp_l, role_l = _roles(instance.left)
    right, kind_r, comp_r, role_r = _roles(instance.right)
    psi = EdgeColouring(instance.graph())
    inside = {}
    for comp in left:
        inside.update(colour_inside(comp))
    for comp in right:
        inside.update(colour_inside(
            Component(comp.kind, tuple(v + off for v in comp.vertices))))
    psi.assign_many(inside, inside.values())

    # A sparse perturbation has about as many component pairs as cross
    # edges, so each array below is as large as the colouring's block; they
    # are updated in place and dropped early, two alive at a time.
    sizes = _BLOCK_SIZES[kind_l[:, None], kind_r[None, :]]
    starts = np.cumsum(sizes).reshape(sizes.shape)
    starts -= sizes
    starts += 4
    del sizes
    colours = starts[comp_l[:, None], comp_r[None, :]]
    del starts
    colours += _BLOCK_OFFSETS[kind_l[comp_l][:, None], kind_r[comp_r][None, :],
                              role_l[:, None], role_r[None, :]]
    psi.assign_cross_block(colours)
    return psi
