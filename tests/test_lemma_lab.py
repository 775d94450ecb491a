"""Tests for the rainbow-clique extractors and their trial harness.

Every extractor output is re-checked by the independent oracles below
(brute-force clique/colour scans that share no code with the library
paths under test); deterministic hand-built instances freeze the exact
choice each procedure must make.
"""

import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab.colouring import (
    ArrowsVerdict,
    EdgeColouring,
    colouring_to_json,
    decide_arrows,
    find_properness_clash,
    is_proper,
)
from rainbowlab.errors import CounterexampleFound, ParameterError, StructureUnsupported
from rainbowlab.graph import Graph, clique, hat_k, join, star
from rainbowlab.lemma_lab import (
    JoinedTriangleBlock,
    certify_lemma,
    disjoint_colour_triangles,
    extract_rainbow_k4,
    extract_rainbow_k5,
    extract_rainbow_k6,
    extract_rainbow_k7,
    LEMMA_NAMES,
    rainbow_k4_in_block,
    rainbow_k4_scaffold,
    rainbow_k5_scaffold,
    rainbow_k6_scaffold,
    rainbow_k7_scaffold,
    sample_fan_matchings,
    sample_rainbow_k4_colouring,
    sample_rainbow_k5_colouring,
    sample_rainbow_k6_colouring,
    sample_rainbow_k7_colouring,
    sample_triangle_pair_colouring,
    spoked_fan_instance,
    surviving_triangle,
    triangle_pair_instance,
)
import rainbowlab.colouring as colouring
import rainbowlab.lemma_lab as lemma_lab


# -- independent oracles ------------------------------------------------------


def oracle_clique_colours(g: Graph, psi: EdgeColouring, vs):
    """Edge colours of the subset, or None if it is not a clique."""
    cols = []
    for u, v in combinations(sorted(vs), 2):
        if not g.has_edge(u, v):
            return None
        cols.append(psi.get(u, v))
    return cols


def assert_rainbow_clique(g: Graph, psi: EdgeColouring, vs, order):
    assert len(set(vs)) == order
    cols = oracle_clique_colours(g, psi, vs)
    assert cols is not None, f"{vs} is not a clique"
    assert None not in cols
    assert len(set(cols)) == len(cols), f"{vs} is not rainbow: {cols}"


def oracle_triangle_colours(g: Graph, psi: EdgeColouring, tri):
    cols = oracle_clique_colours(g, psi, tri)
    assert cols is not None and len(cols) == 3
    return set(cols)


def fresh_colouring(g: Graph) -> EdgeColouring:
    psi = EdgeColouring(g)
    for u, v in g.edges:
        psi.assign_fresh(u, v)
    return psi


def greedy_proper_colouring(g: Graph, order=None) -> EdgeColouring:
    """Smallest legal colour per edge, edges taken in the given order."""
    psi = EdgeColouring(g)
    for u, v in g.edges if order is None else order:
        blocked = psi.colours_at(u) | psi.colours_at(v)
        c = 0
        while c in blocked:
            c += 1
        psi.assign(u, v, c)
    return psi


def rng_for(label: str) -> random.Random:
    return random.Random(label)


# -- rainbow K4 from the star join -------------------------------------------


class TestExtractRainbowK4:
    def test_all_distinct_uses_first_right_edge(self):
        sc = rainbow_k4_scaffold()
        psi = fresh_colouring(sc.graph)
        out = extract_rainbow_k4(sc, psi)
        assert out == (0, 1, 4, 5)
        assert_rainbow_clique(sc.graph, psi, out, 4)

    def test_eight_colour_instance_picks_remaining_right_edge(self):
        # Left star reuses colours 0,1,2; right star shows 0,1,2,3; the
        # greedy cross completion keeps the total palette at 8 colours.
        sc = rainbow_k4_scaffold()
        order = (
            list(sc.left_edges())
            + list(sc.right_edges())
            + sorted(
                (x, z) for x in (0, 1, 2, 3) for z in (4, 5, 6, 7, 8)
            )
        )
        psi = greedy_proper_colouring(sc.graph, order)
        assert len(psi.colours_used()) == 8
        left = {psi.get(0, x) for x in (1, 2, 3)}
        assert [c for z in (5, 6, 7, 8) if (c := psi.get(4, z)) not in left] == [3]
        assert psi.get(4, 8) == 3
        out = extract_rainbow_k4(sc, psi)
        assert 4 in out and 8 in out
        assert out == (0, 2, 4, 8)
        assert_rainbow_clique(sc.graph, psi, out, 4)

    def test_randomised_runs_always_extract(self):
        sc = rainbow_k4_scaffold()
        for t in range(800):
            psi = sample_rainbow_k4_colouring(sc, rng_for(f"k4:{t}"))
            assert is_proper(sc.graph, psi)
            out = extract_rainbow_k4(sc, psi)
            assert_rainbow_clique(sc.graph, psi, out, 4)

    def test_every_proper_colouring_holds_a_rainbow_k4(self):
        # the lemma for all proper colourings, not only sampled ones: the
        # exact decider exhausts the scaffold, and the node count pins its
        # search order
        g = join(star(3), star(4))
        assert g == rainbow_k4_scaffold().graph
        assert decide_arrows(g, clique(4), node_budget=10_000_000) == (
            ArrowsVerdict("arrows", None, 8_324_093))

    def test_improper_input_reported(self):
        sc = rainbow_k4_scaffold()
        psi = fresh_colouring(sc.graph)
        psi.assign(0, 1, psi.get(0, 2))
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k4(sc, psi)
        assert exc.value.offending.check == "proper-colouring"

    def test_partial_input_reported(self):
        sc = rainbow_k4_scaffold()
        psi = EdgeColouring(sc.graph)
        psi.assign_fresh(0, 1)
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k4(sc, psi)
        assert exc.value.offending.check == "total-colouring"


# -- rainbow K5 from the triangle-star join ----------------------------------


class TestExtractRainbowK5:
    def test_fresh_star_edges_pick_first_leaf(self):
        sc = rainbow_k5_scaffold()
        psi = fresh_colouring(sc.graph)
        out = extract_rainbow_k5(sc, psi)
        assert out == (0, 1, 2, 3, 4)
        assert_rainbow_clique(sc.graph, psi, out, 5)

    def test_three_star_edges_reuse_triangle_colours(self):
        sc = rainbow_k5_scaffold()
        psi = EdgeColouring(sc.graph)
        for k in sc.core_keys:
            psi.assign_fresh(*k)
        tri_cols = [psi.get(0, 1), psi.get(0, 2), psi.get(1, 2)]
        for z, c in zip((4, 5, 6), tri_cols):
            psi.assign(3, z, c)
        psi.assign_fresh(3, 7)
        assert is_proper(sc.graph, psi)
        out = extract_rainbow_k5(sc, psi)
        assert out == (0, 1, 2, 3, 7)
        assert_rainbow_clique(sc.graph, psi, out, 5)

    def test_core_clash_is_reported_not_extracted(self):
        sc = rainbow_k5_scaffold()
        psi = fresh_colouring(sc.graph)
        psi.assign(0, 4, psi.get(1, 2))  # proper, but the core repeats a colour
        assert is_proper(sc.graph, psi)
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k5(sc, psi)
        failure = exc.value.offending
        assert failure.check == "rainbow-core"
        assert set(failure.witness[:2]) == {(1, 2), (0, 4)}

    def test_randomised_runs_always_extract(self):
        sc = rainbow_k5_scaffold()
        for t in range(800):
            psi = sample_rainbow_k5_colouring(sc, rng_for(f"k5:{t}"))
            assert is_proper(sc.graph, psi)
            out = extract_rainbow_k5(sc, psi)
            assert_rainbow_clique(sc.graph, psi, out, 5)
            assert 3 in out  # star centre always participates

    def test_every_proper_colouring_up_to_renaming_extracts(self):
        """Exhaustive certificate of the lemma.  Up to renaming, the rainbow
        core is coloured 0..17, and each star edge takes a core colour legal
        at both its ends or a fresh one; the star edges share the centre, so
        their colours are distinct.  That is 20,284 proper colourings."""
        sc = rainbow_k5_scaffold()
        core = EdgeColouring(sc.graph)
        core.assign_many(sc.core_keys, range(len(sc.core_keys)))
        core.freeze()
        options = []
        for i, z in enumerate(sc.star_leaves):
            blocked = core.colours_at(sc.star_centre) | core.colours_at(z)
            legal = [c for c in range(core.next_colour) if c not in blocked]
            options.append(legal + [core.next_colour + i])
        count = 0
        for choice in product(*options):
            if len(set(choice)) == len(choice):
                psi = core.copy()
                psi.assign_many(sc.star_edges(), choice)
                assert_rainbow_clique(sc.graph, psi, extract_rainbow_k5(sc, psi), 5)
                count += 1
        assert count == 20_284


# -- colour-disjoint triangle pair --------------------------------------------


def cherry_fan_hand_colouring(gamma_pair=50, alpha=7, spoke_overrides=()):
    """The hand-built duplicated-base instance: cherry hub colours 1..6,
    pendants 7..10, fan spokes 20..39, first two fan bases sharing
    `gamma_pair`, remaining bases 51, 52, then fresh."""
    inst = triangle_pair_instance()
    psi = EdgeColouring(inst.graph)
    ch = inst.cherry
    u1, u2, u3 = ch.left, ch.hub, ch.right
    w1, w2 = ch.left_tips
    w3, w4 = ch.right_tips
    psi.assign(u1, u2, 1)
    psi.assign(u2, w1, 2)
    psi.assign(u2, w2, 3)
    psi.assign(u2, w3, 4)
    psi.assign(u2, w4, 5)
    psi.assign(u2, u3, 6)
    psi.assign(u1, w1, alpha)
    psi.assign(u1, w2, 8)
    psi.assign(u3, w3, 9)
    psi.assign(u3, w4, 10)
    overrides = dict(spoke_overrides)
    fan = inst.fan
    for i, (a, b) in enumerate(fan.rim):
        psi.assign(fan.hub, a, overrides.get((i, 0), 20 + 2 * i))
        psi.assign(fan.hub, b, overrides.get((i, 1), 21 + 2 * i))
    bases = {0: gamma_pair, 1: gamma_pair, 2: 51, 3: 52}
    for i, (a, b) in enumerate(fan.rim):
        psi.assign(a, b, bases.get(i, 60 + i))
    assert is_proper(inst.graph, psi)
    return inst, psi


class TestDisjointColourTriangles:
    def test_all_distinct_returns_first_candidates(self):
        inst = triangle_pair_instance()
        psi = fresh_colouring(inst.graph)
        q1, q2 = disjoint_colour_triangles(inst, psi)
        assert q1 == (7, 8, 9)
        assert q2 == (0, 1, 3)
        assert not (
            oracle_triangle_colours(inst.graph, psi, q1)
            & oracle_triangle_colours(inst.graph, psi, q2)
        )

    def test_duplicated_base_picks_first_left_triangle(self):
        inst, psi = cherry_fan_hand_colouring()
        q1, q2 = disjoint_colour_triangles(inst, psi)
        assert q1 == (7, 8, 9)  # first fan triangle
        assert q2 == (0, 1, 3)  # left path edge plus its first pendant tip
        assert not (
            oracle_triangle_colours(inst.graph, psi, q1)
            & oracle_triangle_colours(inst.graph, psi, q2)
        )

    def test_duplicated_base_pendant_pollution_moves_to_second_triangle(self):
        # The pendant colour sits on a hub edge of the first duplicated
        # fan triangle, so the second one is chosen.
        inst, psi = cherry_fan_hand_colouring(spoke_overrides={(0, 0): 7})
        q1, q2 = disjoint_colour_triangles(inst, psi)
        assert q1 == (7, 10, 11)
        assert q2 == (0, 1, 3)
        assert not (
            oracle_triangle_colours(inst.graph, psi, q1)
            & oracle_triangle_colours(inst.graph, psi, q2)
        )

    def test_duplicated_base_inside_left_hub_colours_switches_side(self):
        inst, psi = cherry_fan_hand_colouring(gamma_pair=2)
        q1, q2 = disjoint_colour_triangles(inst, psi)
        assert q1 == (7, 8, 9)
        assert q2 == (1, 2, 5)  # right path edge plus its first pendant tip
        assert not (
            oracle_triangle_colours(inst.graph, psi, q1)
            & oracle_triangle_colours(inst.graph, psi, q2)
        )

    def test_randomised_runs_always_disjoint(self):
        inst = triangle_pair_instance()
        for t in range(2500):
            psi = sample_triangle_pair_colouring(inst, rng_for(f"pair:{t}"))
            q1, q2 = disjoint_colour_triangles(inst, psi)
            assert q1[0] == 7 or 7 in q1  # fan triangle contains the fan hub
            assert set(q2) <= set(range(7))
            assert not (
                oracle_triangle_colours(inst.graph, psi, q1)
                & oracle_triangle_colours(inst.graph, psi, q2)
            )

    def test_improper_reported(self):
        inst = triangle_pair_instance()
        psi = fresh_colouring(inst.graph)
        psi.assign(0, 1, psi.get(1, 3))
        with pytest.raises(StructureUnsupported) as exc:
            disjoint_colour_triangles(inst, psi)
        assert exc.value.offending.check == "proper-colouring"


# -- rainbow K6 ----------------------------------------------------------------


class TestExtractRainbowK6:
    def test_fresh_colouring_first_candidate(self):
        sc = rainbow_k6_scaffold()
        psi = fresh_colouring(sc.graph)
        out = extract_rainbow_k6(sc, psi)
        assert out == (0, 1, 3, 217, 218, 219)
        assert_rainbow_clique(sc.graph, psi, out, 6)

    def test_three_clashing_cross_blocks_fourth_chosen(self):
        sc = rainbow_k6_scaffold()
        psi = fresh_colouring(sc.graph)
        hub = sc.fan.hub
        a, b = sc.fan.rim[0]
        # Pollute the cross blocks of the first three voting cherries
        # with one colour of the common fan triangle each.
        psi.assign(0 * 7, b, psi.get(hub, a))
        psi.assign(1 * 7, a, psi.get(hub, b))
        psi.assign(2 * 7, hub, psi.get(a, b))
        assert is_proper(sc.graph, psi)
        out = extract_rainbow_k6(sc, psi)
        assert out == (21, 22, 24, 217, 218, 219)
        assert_rainbow_clique(sc.graph, psi, out, 6)

    def test_randomised_runs_always_extract(self):
        sc = rainbow_k6_scaffold()
        left_n = 7 * len(sc.cherries)
        for t in range(200):
            psi = sample_rainbow_k6_colouring(sc, rng_for(f"k6:{t}"))
            out = extract_rainbow_k6(sc, psi)
            assert_rainbow_clique(sc.graph, psi, out, 6)
            assert sum(v < left_n for v in out) == 3

    def test_cross_colour_repeat_reported(self):
        sc = rainbow_k6_scaffold()
        psi = fresh_colouring(sc.graph)
        c = psi.get(1, 221)
        psi.assign(0, 220, c)
        assert is_proper(sc.graph, psi)
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k6(sc, psi)
        assert exc.value.offending.check == "cross-rainbow"
        assert exc.value.offending.witness == ((0, 220), (1, 221), c)

    def test_cross_colour_leaking_into_cherries_reported(self):
        sc = rainbow_k6_scaffold()
        psi = fresh_colouring(sc.graph)
        last = sc.cherries[-1]
        c = psi.get(last.left, last.hub)
        psi.assign(0, 218, c)
        assert is_proper(sc.graph, psi)
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k6(sc, psi)
        assert exc.value.offending.check == "cross-avoids-side"
        assert exc.value.offending.witness == (c, ((last.left, last.hub),))


# -- surviving triangle of the spoked fan --------------------------------------


class TestSurvivingTriangle:
    def test_no_matchings_first_triangle(self):
        inst = spoked_fan_instance()
        assert surviving_triangle(inst, []) == (0, 1, 26)

    def test_24_matchings_wiping_48_of_49_triangles(self):
        inst = spoked_fan_instance()
        fan = inst.roles
        matchings = [
            [(0, fan.apexes[0][2 * t]), (1, fan.apexes[0][2 * t + 1])]
            for t in range(24)
        ]
        tri = surviving_triangle(inst, matchings)
        assert tri == (0, 1, fan.apexes[0][48])
        removed = {e for m in matchings for e in m}
        for e in combinations(tri, 2):
            assert tuple(sorted(e)) not in removed

    def test_skeleton_pruning_moves_to_last_spoke(self):
        inst = spoked_fan_instance()
        matchings = [[(0, s)] for s in range(1, 25)]
        tri = surviving_triangle(inst, matchings)
        assert tri == (0, 25, inst.roles.apexes[24][0])
        assert tri == (0, 25, 1202)

    def test_too_many_matchings_rejected(self):
        inst = spoked_fan_instance()
        with pytest.raises(ParameterError, match="at most 24"):
            surviving_triangle(inst, [[(0, 1)]] * 25)

    def test_non_matching_rejected(self):
        inst = spoked_fan_instance()
        with pytest.raises(ParameterError, match="not a matching"):
            surviving_triangle(inst, [[(0, 1), (0, 2)]])

    def test_non_edge_rejected(self):
        inst = spoked_fan_instance()
        with pytest.raises(ParameterError, match="non-edge"):
            surviving_triangle(inst, [[(1, 2)]])

    def test_failure_payloads(self):
        """The scan's two counterexamples name the spoke it gave up on and
        count every removed fan key, scanned or not."""
        inst = spoked_fan_instance()
        fan, g = inst.roles, inst.graph
        c, s0, s1, s5 = fan.centre, fan.spokes[0], fan.spokes[1], fan.spokes[5]
        # spoke 0 is cut, spoke 1 loses each pendant triangle (half of them
        # at the centre, half at the spoke) and a later skeleton edge is cut
        removed = {(c, s0), (c, s5)} | {
            (c, p) if j % 2 else (s1, p) for j, p in enumerate(fan.apexes[1])}
        with pytest.raises(CounterexampleFound) as exc:
            lemma_lab._surviving_triangle_core(g, None, fan, removed.__contains__, "ctx")
        assert str(exc.value) == "ctx: surviving skeleton edge lost all its pendant triangles"
        assert exc.value.payload["detail"] == {"spoke": s1, "removed_count": 51}

        removed = {(c, s) for s in fan.spokes} | {(s0, fan.apexes[0][0]), (c, fan.apexes[9][3])}
        with pytest.raises(CounterexampleFound) as exc:
            lemma_lab._surviving_triangle_core(g, None, fan, removed.__contains__, "ctx")
        assert str(exc.value) == (
            "ctx: every skeleton edge was removed by at most 24 matchings")
        assert exc.value.payload["detail"] == {"removed_count": 27}

    def test_randomised_batches_always_survive(self):
        inst = spoked_fan_instance()
        g = inst.graph
        for t in range(400):
            matchings = sample_fan_matchings(inst, rng_for(f"sv:{t}"))
            tri = surviving_triangle(inst, matchings)
            removed = {tuple(sorted(e)) for m in matchings for e in m}
            for e in combinations(tri, 2):
                assert g.has_edge(*e)
                assert tuple(sorted(e)) not in removed


# -- rainbow K7 ----------------------------------------------------------------


class TestRainbowK4InBlock:
    def test_three_polluted_free_vertices_leave_the_fourth(self):
        g = hat_k(3, 4)
        block = JoinedTriangleBlock.at_offset(0)
        psi = fresh_colouring(g)
        psi.assign(0, 3, psi.get(1, 2))
        psi.assign(1, 4, psi.get(0, 2))
        psi.assign(2, 5, psi.get(0, 1))
        assert is_proper(g, psi)
        out = rainbow_k4_in_block(psi, block)
        assert out == (0, 1, 2, 6)
        assert_rainbow_clique(g, psi, out, 4)

    def test_random_proper_colourings_always_contain_rainbow_k4(self):
        from rainbowlab.colouring import random_proper_colouring

        g = hat_k(3, 4)
        block = JoinedTriangleBlock.at_offset(0)
        for t in range(400):
            rng = rng_for(f"block:{t}")
            psi = random_proper_colouring(g, rng, rng.random() * 0.5)
            out = rainbow_k4_in_block(psi, block)
            assert_rainbow_clique(g, psi, out, 4)


class TestExtractRainbowK7:
    def test_fresh_colouring_immediate(self):
        sc = rainbow_k7_scaffold()
        psi = fresh_colouring(sc.graph)
        out = extract_rainbow_k7(sc, psi)
        assert out == (0, 1, 2, 3, 28, 29, 54)
        assert_rainbow_clique(sc.graph, psi, out, 7)

    def test_rim_pruning_skips_first_fan_triangle(self):
        sc = rainbow_k7_scaffold()
        psi = fresh_colouring(sc.graph)
        psi.assign(29, 54, psi.get(0, 1))  # rim edge wears a block-K4 colour
        assert is_proper(sc.graph, psi)
        out = extract_rainbow_k7(sc, psi)
        assert out == (0, 1, 2, 3, 28, 29, 55)
        assert_rainbow_clique(sc.graph, psi, out, 7)

    def test_skeleton_pruning_skips_first_spoke(self):
        sc = rainbow_k7_scaffold()
        psi = fresh_colouring(sc.graph)
        psi.assign(28, 29, psi.get(0, 1))  # skeleton edge wears a block colour
        assert is_proper(sc.graph, psi)
        out = extract_rainbow_k7(sc, psi)
        assert out == (0, 1, 2, 3, 28, 30, 103)
        assert_rainbow_clique(sc.graph, psi, out, 7)

    def test_three_clashing_cross_blocks_fourth_chosen(self):
        sc = rainbow_k7_scaffold()
        psi = fresh_colouring(sc.graph)
        centre, spoke, apex = 28, 29, 54
        psi.assign(0, apex, psi.get(centre, spoke))
        psi.assign(7, spoke, psi.get(centre, apex))
        psi.assign(14, centre, psi.get(spoke, apex))
        assert is_proper(sc.graph, psi)
        out = extract_rainbow_k7(sc, psi)
        assert out == (21, 22, 23, 24, 28, 29, 54)
        assert_rainbow_clique(sc.graph, psi, out, 7)

    def test_randomised_runs_always_extract(self):
        sc = rainbow_k7_scaffold()
        for t in range(40):
            psi = sample_rainbow_k7_colouring(sc, rng_for(f"k7:{t}"))
            out = extract_rainbow_k7(sc, psi)
            assert_rainbow_clique(sc.graph, psi, out, 7)
            assert sum(v < 28 for v in out) == 4

    def test_cross_colour_repeat_reported(self):
        sc = rainbow_k7_scaffold()
        psi = fresh_colouring(sc.graph)
        c = psi.get(1, 31)
        psi.assign(0, 30, c)
        with pytest.raises(StructureUnsupported) as exc:
            extract_rainbow_k7(sc, psi)
        assert exc.value.offending.check == "cross-rainbow"
        assert exc.value.offending.witness == ((0, 30), (1, 31), c)


@pytest.mark.parametrize("build", [rainbow_k6_scaffold, rainbow_k7_scaffold])
def test_cross_keys_are_the_joins_whole_block(build):
    """The K6/K7 cross checks read the join's cross block in one piece and
    walk `cross_keys` only to name an offence: the two must be the same
    edges in the same (row-major) order."""
    sc = build()
    g = sc.graph
    assert sc.cross_keys == tuple((u, v) for u in range(g.split) for v in range(g.split, g.n))


@pytest.mark.parametrize("build,gadgets", [
    (rainbow_k6_scaffold, lambda sc: sc.cherries),
    (rainbow_k7_scaffold, lambda sc: sc.blocks),
])
def test_sampler_passes_rest_on_disjoint_gadgets(build, gadgets):
    """The K6/K7 samplers colour all of `left_keys` in one greedy pass, as
    if one pass per cherry or block: sound because the gadgets are
    pairwise vertex-disjoint (no pool colour placed in one can block an
    edge of another) and `left_keys` lists their edges gadget by gadget.
    The fan shares no vertex with them either."""
    sc = build()
    parts = [set(gadget.vertices()) for gadget in gadgets(sc)]
    fan = set(sc.fan.vertices())
    assert sum(map(len, parts)) + len(fan) == len(set().union(fan, *parts))
    assert sc.left_keys == tuple(k for gadget in gadgets(sc) for k in gadget.edges())


def test_k7_template_fan_colours_lie_above_the_pool():
    """The K7 sampler's fan loop never reads the template: an apex's
    (centre, p) colour blocks a pool pick on (s, p) only when the trial
    put a pool colour there, because the template's fan ids are at least
    20 and the pool (`randrange(8, 20)` colours) is 0 .. 18."""
    sc = rainbow_k7_scaffold()
    fan_colours = lemma_lab._k7_template().colours(sc.right_keys)
    assert min(fan_colours) >= 20


def test_output_gate_rejects_a_clique_that_is_not_rainbow():
    """Every extractor returns through `_validated_rainbow_clique`; a clique
    with a repeated colour must fail there, not be returned."""
    g = clique(4)
    psi = EdgeColouring(g, {(0, 1): 0, (0, 2): 1, (0, 3): 2, (1, 2): 2, (1, 3): 1, (2, 3): 0})
    assert lemma_lab._validated_rainbow_clique(g, psi, (0, 1, 2), "k3") == (0, 1, 2)
    with pytest.raises(CounterexampleFound, match="k4: output clique is not rainbow") as exc:
        lemma_lab._validated_rainbow_clique(g, psi, (3, 1, 0, 2), "k4")
    assert exc.value.payload["detail"] == {
        "vertices": (0, 1, 2, 3), "colours": [0, 1, 2, 2, 1, 0]}


# -- frozen templates and the checks on their copies ---------------------------

TEMPLATE_LEMMAS = {
    "extract-rainbow-k6": (rainbow_k6_scaffold, sample_rainbow_k6_colouring, extract_rainbow_k6),
    "extract-rainbow-k7": (rainbow_k7_scaffold, sample_rainbow_k7_colouring, extract_rainbow_k7),
}


def plain_twin(psi: EdgeColouring) -> EdgeColouring:
    """A colouring with psi's colours that is no copy of a frozen one, so
    every check on it reads every edge."""
    twin = EdgeColouring(psi.graph)
    keys = psi.domain()
    twin.assign_many(keys, psi.colours(keys))
    return twin


def extract_outcome(extract, sc, psi):
    try:
        return ("ok", extract(sc, psi))
    except StructureUnsupported as exc:
        failure = exc.offending
        return ("declined", failure.check, failure.detail, failure.witness)


def plant(kind: str, rng: random.Random, sc, psi: EdgeColouring) -> None:
    """Recolour edges of a sampled K6/K7 colouring: a cross colour leaking
    onto a side edge, a cross repeat (in one row, one column, or apart), a
    colour repeated at a vertex, two colours swapped at a vertex, or a
    small pool colour."""
    g = sc.graph
    side = sc.left_keys + sc.right_keys
    if kind == "leak":
        psi.assign(*rng.choice(sc.left_keys), psi.get(*rng.choice(sc.cross_keys)))
    elif kind == "repeat":
        u, w = rng.choice(sc.cross_keys)
        x, y = rng.choice(sc.cross_keys)
        x, y = rng.choice(((u, y), (x, w), (x, y), (x, y)))
        if (x, y) != (u, w):
            psi.assign(u, w, psi.get(x, y))
    elif kind in ("clash", "swap"):
        e = rng.choice(side) if rng.random() < 0.5 else rng.choice(sc.cross_keys)
        v = rng.choice(e)
        f = tuple(sorted((v, rng.choice(list(g.neighbours(v))))))
        ce, cf = psi.get(*e), psi.get(*f)
        psi.assign(*e, cf)
        if kind == "swap":
            psi.assign(*f, ce)
    else:
        psi.assign(*rng.choice(side), rng.randrange(40))


@pytest.mark.parametrize("name", sorted(TEMPLATE_LEMMAS))
@given(st.integers(0, 10**6),
       st.lists(st.tuples(st.sampled_from(("leak", "repeat", "clash", "swap", "pool")),
                          st.integers(0, 10**9)), max_size=4))
@settings(max_examples=40, deadline=None)
def test_template_copies_are_checked_as_in_full(name, seed, writes):
    """A sampled K6/K7 colouring is a copy of a frozen template, checked
    only where the sampler and the planted writes wrote.  Its properness
    clash and its extraction outcome (the clique, or the failed
    precondition's check, detail and witness) must equal those of a plain
    twin with the same colours."""
    build, sample, extract = TEMPLATE_LEMMAS[name]
    sc = build()
    psi = sample(sc, random.Random(seed))
    assert psi.overlay() is not None
    for kind, r in writes:
        plant(kind, random.Random(r), sc, psi)
    twin = plain_twin(psi)
    assert twin.overlay() is None
    assert psi.is_total() and twin.is_total()
    assert find_properness_clash(sc.graph, psi) == find_properness_clash(sc.graph, twin)
    assert extract_outcome(extract, sc, psi) == extract_outcome(extract, sc, twin)


def plant_fan(rng: random.Random, sc, psi: EdgeColouring, count: int) -> None:
    """Up to `count` writes that keep psi proper.  A fan edge of the first
    two spokes (half of the time, of the first three fan triangles) takes
    a block colour (which extraction may prune), another fan edge's colour
    or a fresh colour; or a block triangle edge, which every block K4
    contains, takes the colour of such a fan edge, which is then pruned
    unless it is recoloured fresh next."""
    head = sc.right_keys[: 2 * len(sc.right_keys) // len(sc.fan.spokes)]

    def proper_assign(u, v, c):
        if c not in psi.colours_at(u) and c not in psi.colours_at(v):
            psi.assign(u, v, c)

    for _ in range(count):
        pick = rng.random()
        fan_key = rng.choice(head[: rng.choice((7, len(head)))])
        if pick < 0.3:
            proper_assign(*rng.choice(rng.choice(sc.blocks).edges()[:3]), psi.get(*fan_key))
            if rng.random() < 0.5:
                psi.assign(*fan_key, psi.next_colour)
        elif pick < 0.7:
            proper_assign(*fan_key, psi.get(*rng.choice(sc.left_keys)))
        elif pick < 0.85:
            proper_assign(*fan_key, psi.get(*rng.choice(sc.right_keys)))
        else:
            psi.assign(*fan_key, psi.next_colour)


@given(st.integers(0, 10**6), st.integers(0, 10**9), st.integers(0, 150))
@settings(max_examples=40, deadline=None)
def test_k7_fan_rewrites_prune_as_in_full(seed, plant_seed, count):
    """With planted fan rewrites on a copy of the frozen K7 template, the
    extraction (which fan triangle survives, or why it fails) equals that
    of a plain twin with the same colours, whose checks read every
    edge."""
    sc = rainbow_k7_scaffold()
    psi = sample_rainbow_k7_colouring(sc, random.Random(seed))
    plant_fan(random.Random(plant_seed), sc, psi, count)
    assert psi.overlay() is not None and is_proper(sc.graph, psi)
    twin = plain_twin(psi)
    assert twin.overlay() is None
    assert (extract_outcome(extract_rainbow_k7, sc, psi)
            == extract_outcome(extract_rainbow_k7, sc, twin))


@pytest.mark.parametrize("name", sorted(TEMPLATE_LEMMAS))
def test_template_is_unchanged_by_trials(name):
    build, sample, _ = TEMPLATE_LEMMAS[name]
    base = sample(build(), random.Random(0)).overlay()[0]
    before = (colouring_to_json(base), base.next_colour)
    with pytest.raises(ParameterError, match="frozen"):
        base.assign(*build().cross_keys[0], 0)
    assert certify_lemma(name, 1000, seed=11).passed
    assert (colouring_to_json(base), base.next_colour) == before


def test_template_trials_read_only_the_written_edges(monkeypatch):
    """The K6/K7 samplers write pool colours and fresh colours above the
    template, never a template colour, so once a warm-up trial has kept
    each template's palette and cross certificate, a trial's properness
    and cross checks read only what it wrote: no full clash search and no
    read of the cross block."""
    runs = [(name, build(), sample, extract)
            for name, (build, sample, extract) in sorted(TEMPLATE_LEMMAS.items())]
    for name, sc, sample, extract in runs:
        extract(sc, sample(sc, random.Random(f"{name}:0:0")))

    def forbidden(*_):
        raise AssertionError("a template trial read more than its writes")

    monkeypatch.setattr(colouring, "_lowest_clash_all", forbidden)
    monkeypatch.setattr(colouring, "_lowest_clash_scan", forbidden)
    monkeypatch.setattr(EdgeColouring, "cross_block", forbidden)
    for name, sc, sample, extract in runs:
        order = 6 if name == "extract-rainbow-k6" else 7
        for trial in range(100):
            psi = sample(sc, random.Random(f"{name}:0:{trial}"))
            assert_rainbow_clique(sc.graph, psi, extract(sc, psi), order)


# -- trial harness --------------------------------------------------------------


class TestCertifyLemma:
    def test_registry_covers_all_extractors(self):
        assert set(LEMMA_NAMES) == {
            "extract-rainbow-k4",
            "extract-rainbow-k5",
            "disjoint-colour-triangles",
            "extract-rainbow-k6",
            "surviving-triangle",
            "extract-rainbow-k7",
        }

    @pytest.mark.parametrize("name", LEMMA_NAMES)
    def test_small_certification_passes(self, name):
        trials = 5 if name in ("extract-rainbow-k6", "extract-rainbow-k7") else 50
        report = certify_lemma(name, trials, seed=20240811)
        assert report.passed and report.failures == 0
        assert report.trials == trials
        assert report.archive is None

    def test_reports_are_deterministic(self):
        a = certify_lemma("disjoint-colour-triangles", 40, seed=5)
        b = certify_lemma("disjoint-colour-triangles", 40, seed=5)
        assert a.to_json_dict() == b.to_json_dict()

    def test_unknown_lemma_rejected(self):
        with pytest.raises(ParameterError, match="unknown lemma"):
            certify_lemma("no-such-lemma", 1, seed=0)
        with pytest.raises(ParameterError, match="trials"):
            certify_lemma("extract-rainbow-k4", 0, seed=0)

    def test_counterexample_is_archived(self, tmp_path, monkeypatch):
        def explode(inst, psi):
            raise CounterexampleFound(
                "forced failure for harness test", {"detail": {"reason": "synthetic"}}
            )

        monkeypatch.setitem(
            lemma_lab._LEMMAS,
            "always-fails",
            (rainbow_k4_scaffold, sample_rainbow_k4_colouring, explode),
        )
        report = certify_lemma("always-fails", 10, seed=1, archive_dir=tmp_path)
        assert report.failures == 1 and not report.passed
        assert report.archive is not None
        record = json.loads((tmp_path / report.archive.split("/")[-1]).read_text())
        assert record["lemma"] == "always-fails"
        assert record["trial"] == 0
        assert record["payload"]["detail"]["reason"] == "synthetic"
