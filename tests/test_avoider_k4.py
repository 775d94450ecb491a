"""Component classification, the cross-block colour tables, and the full
rainbow-K4 avoider on sampled perturbed instances."""

import numpy as np
import pytest

from rainbowlab.avoider_k4 import (
    Component,
    avoid_k4,
    classify_components,
    colour_inside,
    cross_palette_size,
    cross_table,
)
from rainbowlab.colouring import EdgeColouring, colouring_to_json, is_proper, rainbow_copies
from rainbowlab.errors import ParameterError, StructureUnsupported
from rainbowlab.graph import Graph, clique
from rainbowlab.model import PerturbedInstance, sample_perturbed

K4 = clique(4)

KIND_EDGES = {
    "K1": (1, []),
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "K13": (4, [(0, 1), (0, 2), (0, 3)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
}


def two_component_instance(kind_a: str, kind_b: str) -> PerturbedInstance:
    na, ea = KIND_EDGES[kind_a]
    nb, eb = KIND_EDGES[kind_b]
    n = 2 * max(na, nb)
    return PerturbedInstance(
        n=n, p=0.0, left=Graph(n // 2, ea), right=Graph(n - n // 2, eb)
    )


def reference_avoid_k4(instance: PerturbedInstance) -> EdgeColouring:
    """The avoider as one cross_table call per component-pair block, with
    palettes handed out block after block from colour 4."""
    g = instance.graph()
    off = instance.u_size
    left = classify_components(instance.left)
    right = [
        Component(c.kind, tuple(v + off for v in c.vertices))
        for c in classify_components(instance.right)
    ]
    psi = EdgeColouring(g)
    for comp in left + right:
        for (u, v), colour in colour_inside(comp).items():
            psi.assign(u, v, colour)
    next_free = 4
    for a in left:
        for b in right:
            size = cross_palette_size(a, b)
            palette = range(next_free, next_free + size)
            next_free += size
            for (u, w), colour in cross_table(a, b, palette).items():
                psi.assign(u, w, colour)
    return psi


# -- classification ----------------------------------------------------------


def test_classify_matching():
    comps = classify_components(Graph(6, [(0, 1), (2, 3), (4, 5)]))
    assert [c.kind for c in comps] == ["K2", "K2", "K2"]


def test_classify_triangle_unsupported():
    with pytest.raises(StructureUnsupported) as exc:
        classify_components(Graph(3, [(0, 1), (1, 2), (0, 2)]))
    assert exc.value.offending == (0, 1, 2)


def test_classify_path_order_and_star_centre():
    comps = classify_components(Graph(4, [(2, 3), (0, 2), (1, 3)]))
    assert comps == [Component("P4", (0, 2, 3, 1))]
    comps = classify_components(Graph(4, [(2, 0), (2, 1), (2, 3)]))
    assert comps == [Component("K13", (2, 0, 1, 3))]
    comps = classify_components(Graph(3, [(1, 2), (0, 2)]))
    assert comps == [Component("P3", (0, 2, 1))]


def test_classify_rejects_big_or_cyclic():
    with pytest.raises(StructureUnsupported):
        classify_components(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]))
    with pytest.raises(StructureUnsupported):
        classify_components(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]))


# -- inside colouring --------------------------------------------------------


def test_colour_inside_examples():
    p4 = Component("P4", (5, 6, 7, 8))
    assert colour_inside(p4) == {(5, 6): 1, (6, 7): 2, (7, 8): 3}
    assert colour_inside(Component("K2", (1, 9))) == {(1, 9): 1}
    assert colour_inside(Component("K1", (4,))) == {}
    k13 = Component("K13", (2, 0, 5, 7))
    assert colour_inside(k13) == {(0, 2): 1, (2, 5): 2, (2, 7): 3}


# -- cross tables ------------------------------------------------------------


def test_cross_table_k13_k13_groups():
    left = Component("K13", (0, 1, 2, 3))      # y,x1,x2,x3
    right = Component("K13", (4, 5, 6, 7))     # y',x1',x2',x3'
    pal = list(range(100, 120))
    out = cross_table(left, right, pal)
    y, x1, x2, x3 = 0, 1, 2, 3
    yp, x1p, x2p, x3p = 4, 5, 6, 7
    assert {out[(x1, x2p)], out[(y, yp)], out[(x2, x3p)], out[(x3, x1p)]} == {pal[0]}
    assert {out[(y, x2p)], out[(x3, yp)]} == {pal[1]}
    assert {out[(x1, yp)], out[(y, x3p)]} == {pal[2]}
    assert {out[(x2, yp)], out[(y, x1p)]} == {pal[3]}
    fresh = [out[e] for e in [(x1, x1p), (x1, x3p), (x2, x1p), (x2, x2p), (x3, x2p), (x3, x3p)]]
    assert len(set(fresh)) == 6 and set(fresh).isdisjoint(pal[:4])
    assert len(out) == 16


def test_cross_table_p4_p4_role_four():
    left = Component("P4", (0, 1, 2, 3))
    right = Component("P4", (4, 5, 6, 7))
    pal = list(range(50, 70))
    out = cross_table(left, right, pal)
    assert {out[(0, 6)], out[(1, 7)], out[(2, 4)], out[(3, 5)]} == {pal[0]}


def test_cross_table_k2_k2_restriction():
    left = Component("K2", (0, 1))
    right = Component("K2", (2, 3))
    pal = list(range(10, 20))
    out = cross_table(left, right, pal)
    # restriction of the path-path table: two shared roles, two fresh cells
    assert out[(0, 3)] == pal[1]
    assert out[(1, 2)] == pal[2]
    assert len({out[(0, 2)], out[(1, 3)]} - set(pal[:4])) == 2
    g = Graph(4, [(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)])
    psi = EdgeColouring(g, {(0, 1): 1, (2, 3): 1, **out})
    assert is_proper(g, psi)
    assert rainbow_copies(g, psi, K4) == []


def test_cross_table_palette_too_small():
    left = Component("K13", (0, 1, 2, 3))
    right = Component("K13", (4, 5, 6, 7))
    with pytest.raises(ParameterError):
        cross_table(left, right, range(5))
    assert cross_palette_size(left, right) == 10


@pytest.mark.parametrize("kind_a", sorted(KIND_EDGES))
@pytest.mark.parametrize("kind_b", sorted(KIND_EDGES))
def test_every_kind_pair_blocks_rainbow_k4(kind_a, kind_b):
    inst = two_component_instance(kind_a, kind_b)
    psi = avoid_k4(inst)
    g = inst.graph()
    assert psi.is_total()
    assert is_proper(g, psi)
    assert rainbow_copies(g, psi, K4) == []
    assert colouring_to_json(psi) == colouring_to_json(reference_avoid_k4(inst))


# -- full avoider ------------------------------------------------------------


@pytest.mark.parametrize("n,c", [(9, 2.0), (40, 1.0), (120, 1.0), (201, 0.7)])
def test_avoid_k4_matches_block_loop(n, c):
    checked = 0
    for trial in range(20):
        if checked == 3:
            break
        inst = sample_perturbed(n, c / n, np.random.default_rng([77 + n, trial]))
        try:
            ref = reference_avoid_k4(inst)
        except StructureUnsupported:
            continue
        psi = avoid_k4(inst)
        assert colouring_to_json(psi) == colouring_to_json(ref)
        assert psi.next_colour == ref.next_colour
        checked += 1
    assert checked == 3


def test_avoid_k4_no_random_edges():
    inst = PerturbedInstance(n=12, p=0.0, left=Graph(6, []), right=Graph(6, []))
    psi = avoid_k4(inst)
    g = inst.graph()
    assert psi.is_total() and is_proper(g, psi)
    assert g.cliques(4) == []
    # every cross edge sits in its own singleton block: all colours distinct
    assert len(psi.colours_used()) == g.m


def test_avoid_k4_two_k2s():
    inst = PerturbedInstance(
        n=4, p=0.0, left=Graph(2, [(0, 1)]), right=Graph(2, [(0, 1)])
    )
    psi = avoid_k4(inst)
    g = inst.graph()
    assert is_proper(g, psi)
    assert len(g.cliques(4)) == 1
    assert rainbow_copies(g, psi, K4) == []
    # both inside edges reuse colour 1; the cross 4-cycle uses 2 shared roles
    assert psi.get(0, 1) == 1 and psi.get(2, 3) == 1
    cross = [psi.get(0, 2), psi.get(0, 3), psi.get(1, 2), psi.get(1, 3)]
    assert len(set(cross)) == 4


def test_avoid_k4_propagates_unsupported():
    inst = PerturbedInstance(
        n=6, p=0.0, left=Graph(3, [(0, 1), (1, 2), (0, 2)]), right=Graph(3, [])
    )
    with pytest.raises(StructureUnsupported):
        avoid_k4(inst)


@pytest.mark.parametrize("n", [20, 60, 150, 400])
def test_avoid_k4_sampled_instances(n):
    p = 0.5 * n ** -1.25
    good = 0
    for trial in range(6):
        inst = sample_perturbed(n, p, np.random.default_rng([1000 + n, trial]))
        try:
            psi = avoid_k4(inst)
        except StructureUnsupported:
            continue
        g = inst.graph()
        assert psi.is_total()
        assert is_proper(g, psi)
        assert rainbow_copies(g, psi, K4) == []
        # structural claim: every K4 is a seed 4-cycle plus one inside edge
        # on each side
        u = inst.u_size
        for a, b, c, d in g.cliques(4):
            sides = sorted(v < u for v in (a, b, c, d))
            assert sides == [False, False, True, True]
        good += 1
    assert good >= 4  # the regime leaves almost all samples supported


def test_palette_disjointness_on_sample():
    inst = sample_perturbed(60, 0.5 * 60 ** -1.25, np.random.default_rng([7, 0]))
    try:
        psi = avoid_k4(inst)
    except StructureUnsupported:
        pytest.skip("unlucky sample outside the regime")
    g = inst.graph()
    inside = {psi.get(u, v) for u, v in g.edges
              if (u < inst.u_size) == (v < inst.u_size)}
    assert inside <= {1, 2, 3}
    cross = [psi.get(u, v) for u, v in g.edges
             if (u < inst.u_size) != (v < inst.u_size)]
    assert min(cross) >= 4
