"""Edge colourings, rainbow detection, and the exact arrows decider
against a brute-force matching-partition oracle."""

import json
import random
import time
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rainbowlab import colouring
from rainbowlab.colouring import (
    _SCAN_LIMIT,
    ArrowsVerdict,
    EdgeColouring,
    colouring_to_json,
    decide_arrows,
    find_properness_clash,
    is_proper,
    rainbow_copies,
    random_proper_colouring,
)
from rainbowlab.errors import ParameterError
from rainbowlab.graph import Graph, clique, empty_graph, hat_k, join, path_graph, star

K3 = clique(3)
K4 = clique(4)

# the unique (up to renaming) proper 3-colouring of K4: perfect matchings
FACTORIZATION = {(0, 1): 0, (2, 3): 0, (0, 2): 1, (1, 3): 1, (0, 3): 2, (1, 2): 2}


def oracle_arrows(g: Graph, h: Graph) -> bool:
    """True iff every partition of E(g) into matchings leaves a rainbow h.

    Enumerates set partitions directly; feasible up to 9 edges.
    """
    edges = list(g.edges)
    m = len(edges)
    assert m <= 9
    copies = []
    from rainbowlab.graph import enumerate_copies

    for emb in enumerate_copies(g, h):
        ids = frozenset(
            edges.index(tuple(sorted((emb[u], emb[v])))) for u, v in h.edges
        )
        copies.append(ids)

    cls = [0] * m

    def vertex_disjoint(i, j):
        return not set(edges[i]) & set(edges[j])

    def rec(i: int, used: int) -> bool:
        """True iff some completion is rainbow-free."""
        if i == m:
            for ids in copies:
                if len({cls[e] for e in ids}) == len(ids):
                    break
            else:
                return True
            return False
        for c in range(used + 1):
            if all(cls[j] != c or vertex_disjoint(i, j) for j in range(i)):
                cls[i] = c
                if rec(i + 1, max(used, c + 1)):
                    return True
        return False

    return not rec(0, 0)


def test_is_proper_examples():
    psi = EdgeColouring(K3, {(0, 1): 1, (0, 2): 2, (1, 2): 3})
    assert is_proper(K3, psi)
    bad = EdgeColouring(K3, {(0, 1): 1, (0, 2): 1, (1, 2): 2})
    assert not is_proper(K3, bad)
    fact = EdgeColouring(K4, FACTORIZATION)
    assert is_proper(K4, fact)


def test_colouring_rejects_non_edges():
    psi = EdgeColouring(path_graph(3))
    with pytest.raises(ParameterError):
        psi.assign(0, 2, 1)
    with pytest.raises(ParameterError):
        EdgeColouring(K3, {(0, 1): -1})


def _state(psi: EdgeColouring):
    return (colouring_to_json(psi), [psi.colours_at(v) for v in range(psi.graph.n)],
            psi.next_colour)


@given(st.integers(0, 10**6), st.integers(2, 12), st.floats(0.1, 1.0),
       st.integers(0, 6))
@settings(max_examples=80, deadline=None)
def test_assign_many_matches_one_by_one(seed, n, density, pool):
    """Bulk assignment, on top of a partial colouring and with colours
    that may repeat, gives the colouring the one-by-one loop gives."""
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    edges = list(g.edges)
    rng.shuffle(edges)
    cut = rng.randrange(len(edges) + 1)
    first = {e: rng.randrange(pool + 1) for e in edges[:cut]}
    rest = edges[cut:]
    colours = [rng.randrange(pool + 1) if pool else 10 + i for i, _ in enumerate(rest)]
    bulk = EdgeColouring(g, first)
    bulk.assign_many(rest, colours)
    loop = EdgeColouring(g, first)
    for (u, v), c in zip(rest, colours):
        loop.assign(u, v, c)
    assert _state(bulk) == _state(loop)
    assert is_proper(g, bulk) == is_proper(g, loop)


@given(st.integers(0, 10**6), st.integers(2, 12), st.floats(0.1, 1.0))
@settings(max_examples=60, deadline=None)
def test_fill_fresh_matches_assign_fresh(seed, n, density):
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    first = {e: rng.randrange(4) for e in g.edges if rng.random() < 0.3}
    bulk = EdgeColouring(g, first)
    bulk.fill_fresh()
    loop = EdgeColouring(g, first)
    for u, v in g.edges:
        if loop.get(u, v) is None:
            loop.assign_fresh(u, v)
    assert _state(bulk) == _state(loop)
    assert bulk.is_total()


def test_fill_fresh_start():
    psi = EdgeColouring(path_graph(4), {(1, 2): 0})
    psi.fill_fresh(start=3)
    assert (psi.get(0, 1), psi.get(2, 3), psi.next_colour) == (3, 4, 5)
    psi = EdgeColouring(path_graph(3), {(1, 2): 5})
    with pytest.raises(ParameterError):
        psi.fill_fresh(start=5)
    assert _state(psi) == _state(EdgeColouring(path_graph(3), {(1, 2): 5}))


@pytest.mark.parametrize("edges,colours", [
    ([(0, 1), (0, 2)], [4, 5]),          # (0, 2) is not an edge
    ([(0, 1), (2, 1)], [4, 5]),          # reversed pair
    ([(0, 1), (0, 1)], [4, 5]),          # duplicate
    ([(0, 1), (2, 3)], [4, 5]),          # (2, 3) is already coloured
    ([(0, 1), (1, 2)], [4, -1]),         # negative colour
    ([(0, 1), (1, 2)], [4]),             # length mismatch
    ([(0, 1), (-1, 3)], [4, 5]),         # vertex out of range
    ([(0, 1), (1, 2)], [4, 2**63]),      # colour beyond int64
])
def test_assign_many_rejects_without_change(edges, colours):
    g = path_graph(4)
    psi = EdgeColouring(g, {(2, 3): 2})
    before = _state(EdgeColouring(g, {(2, 3): 2}))
    with pytest.raises(ParameterError):
        psi.assign_many(edges, colours)
    assert _state(psi) == before


@pytest.mark.parametrize("edges,colours", [
    ([(0, 1), (0, 2)], [4, 5]),          # (0, 2) is not an edge
    ([(0, 1), (2, 1)], [4, 5]),          # reversed pair
    ([(0, 1), (0, 1)], [4, 5]),          # repeated key
    ([(0, 1), (1, 2)], [4, 5.0]),        # float colour
    ([(0, 1), (1, 2)], [4, 2**63]),      # colour beyond int64
    ([(0, 1), (1, 2)], [4, -1]),         # negative colour
    ([(0, 1), (1, 2)], [4]),             # length mismatch
])
@pytest.mark.parametrize("frozen_base", [False, True])
def test_recolour_many_rejects_without_change(edges, colours, frozen_base):
    """A refused bulk recolouring changes nothing: neither the colours nor,
    on a copy of a frozen colouring, the overlay log."""
    g = path_graph(4)
    psi = EdgeColouring(g, {(0, 1): 7, (2, 3): 2})
    if frozen_base:
        psi = psi.freeze().copy()
        psi.assign(1, 2, 9)
    before = (_state(psi), psi.overlay())
    with pytest.raises(ParameterError):
        psi.recolour_many(edges, colours)
    assert (_state(psi), psi.overlay()) == before


# On the join of two 3-paths: sides {0, 1, 2} and {3, 4, 5}, cross edges
# (u, v) for u < 3 <= v.  The messages were recorded before the bulk write
# validated in one pass; the later cases pin which of two faults is named.
JOIN_WRITE_REJECTIONS = [
    ([(0, 4), (0, 3)], [5, 6],                   # (0, 3) is already coloured
     "(0, 3) is already coloured"),
    ([(0, 4), (1, 5), (0, 4)], [5, 6, 8],        # repeated cross cell
     "an edge is listed more than once"),
    ([(0, 4), (4, 1)], [5, 6],                   # reversed cross pair
     "(4,1) is not an edge (u < v) of the companion graph"),
    ([(0, 4), (1, 5)], [5, 6.0],                 # float colour on a cross cell
     "colour ids must be integers, got 6.0"),
    ([(0, 4), (3, 5)], [5, 6],                   # non-edge inside a side
     "(3,5) is not an edge (u < v) of the companion graph"),
    ([(0, 3), (1, 2)], [5, 6.5],                 # coloured cell, then a float
     "colour ids must be integers, got 6.5"),
    ([(0, 4), (0, 4), (0, 2)], [5, 6, 8],        # repeat, then a non-edge
     "(0,2) is not an edge (u < v) of the companion graph"),
    ([(1, 2), (0, 3), (0, 3)], [5, 6, 8],        # coloured cell repeated
     "an edge is listed more than once"),
]


def _join_colouring(frozen_base: bool) -> EdgeColouring:
    g = join(path_graph(3), path_graph(3))
    psi = EdgeColouring(g, {(0, 1): 7, (0, 3): 2, (3, 4): 1})
    if frozen_base:
        psi = psi.freeze().copy()
        psi.assign(1, 2, 9)
    return psi


@pytest.mark.parametrize("edges,colours,message", JOIN_WRITE_REJECTIONS)
@pytest.mark.parametrize("frozen_base", [False, True])
def test_assign_many_on_a_join_rejects_without_change(edges, colours, message, frozen_base):
    psi = _join_colouring(frozen_base)
    before = (_state(psi), psi.overlay())
    with pytest.raises(ParameterError) as exc:
        psi.assign_many(edges, colours)
    assert str(exc.value) == message
    assert (_state(psi), psi.overlay()) == before


@pytest.mark.parametrize("edges,colours,message", [
    case for case in JOIN_WRITE_REJECTIONS if "already" not in case[2]])
@pytest.mark.parametrize("frozen_base", [False, True])
def test_recolour_many_on_a_join_rejects_without_change(edges, colours, message, frozen_base):
    """Overwriting is allowed, so a coloured cross cell in the input is no
    fault; a rejected call still leaves it, and the overlay log, as they
    were."""
    psi = _join_colouring(frozen_base)
    before = (_state(psi), psi.overlay())
    with pytest.raises(ParameterError) as exc:
        psi.recolour_many(edges, colours)
    assert str(exc.value) == message
    assert (_state(psi), psi.overlay()) == before


def test_recolour_many_overwrites_like_assign():
    g = join(path_graph(3), star(2))
    base = EdgeColouring(g, {(0, 1): 1, (0, 3): 2, (3, 4): 3}).freeze()
    psi = base.copy()
    psi.recolour_many([(0, 1), (3, 4), (1, 2)], [5, 4, 8])
    assert [psi.get(0, 1), psi.get(3, 4), psi.get(1, 2), psi.get(0, 3)] == [5, 4, 8, 2]
    assert psi.overlay() == (base, frozenset({(0, 1), (1, 2), (3, 4)}), False)
    assert psi.next_colour == 9
    psi.recolour_many([(0, 3)], [0])
    assert psi.get(0, 3) == 0 and psi.overlay()[2] and psi.next_colour == 9
    with pytest.raises(ParameterError, match="already coloured"):
        psi.assign_many([(0, 1)], [6])


# -- a join's cross block against its plain twin ----------------------------


def _outcome(call):
    """What a call returns, or the message of the ParameterError it raises."""
    try:
        return ("ok", call())
    except ParameterError as exc:
        return ("error", str(exc))


def _observe(psi: EdgeColouring) -> tuple:
    """Everything the public readers say about psi."""
    g = psi.graph
    return (
        colouring_to_json(psi),
        find_properness_clash(g, psi),
        psi.is_total(),
        len(psi),
        psi.colours_used(),
        [psi.colours_at(v) for v in range(g.n)],
        psi.next_colour,
    )


def _recolour_as_assign(psi: EdgeColouring, edges, colours) -> None:
    """psi.recolour_many(edges, colours), checked against `assign` of one
    pair at a time on a copy: the same colouring, overlay log and
    next_colour.  A refused call must leave psi as it was."""
    loop = psi.copy()
    before = (_state(psi), psi.overlay())
    try:
        psi.recolour_many(edges, colours)
    except ParameterError:
        assert (_state(psi), psi.overlay()) == before
        raise
    for (u, v), c in zip(edges, colours):
        loop.assign(u, v, c)
    assert (_state(psi), psi.overlay()) == (_state(loop), loop.overlay())


def _random_op(rng: random.Random, g: Graph, psi: EdgeColouring):
    """One random call, as a function of the colouring it is applied to."""
    edges = list(g.edges)
    pool = rng.choice((3, 6, 40))

    def colour():
        return rng.choice((rng.randrange(pool), rng.randrange(pool), psi.next_colour,
                           -1, 2**63))

    def pair():
        if rng.random() < 0.8:
            u, v = rng.choice(edges)
            return (v, u) if rng.random() < 0.3 else (u, v)
        return rng.randrange(-1, g.n + 1), rng.randrange(-1, g.n + 1)

    kind = rng.choice(("assign", "assign_many", "recolour_many", "fill_fresh", "plant",
                       "copy", "colours", "get"))
    if kind == "assign":
        (u, v), c = pair(), colour()
        return kind, lambda p: p.assign(u, v, c)
    if kind in ("assign_many", "recolour_many"):
        chosen = rng.sample(edges, rng.randrange(len(edges) + 1))
        if chosen and rng.random() < 0.2:
            chosen.append(rng.choice(chosen))
        if chosen and rng.random() < 0.2:
            chosen[0] = pair()
        cs = [rng.randrange(pool) if rng.random() < 0.7 else 10**6 + i
              for i, _ in enumerate(chosen)]
        if cs and rng.random() < 0.1:
            cs[-1] = rng.choice((colour(), 1.5))
        if kind == "recolour_many":
            return kind, lambda p: _recolour_as_assign(p, chosen, cs)
        return kind, lambda p: p.assign_many(chosen, cs)
    if kind == "fill_fresh":
        start = None if rng.random() < 0.5 else psi.next_colour + rng.randrange(-1, 3)
        return kind, lambda p: p.fill_fresh(start)
    if kind == "plant":
        # two edges at one vertex, same colour: in a row, in a column, or a
        # side edge and a cross edge
        v = rng.randrange(g.n)
        at = [(min(v, w), max(v, w)) for w in g.neighbours(v)]
        chosen = rng.sample(at, min(2, len(at)))
        c = rng.randrange(pool)
        return kind, lambda p: [p.assign(a, b, c) for a, b in chosen]
    if kind == "colours":
        keys = [pair() for _ in range(rng.randrange(4))]
        return kind, lambda p: p.colours(keys)
    if kind == "get":
        u, v = pair()
        return kind, lambda p: p.get(u, v)
    return kind, None


@given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_join_colouring_matches_plain_twin(a, b, seed):
    """A join keeps its cross colours in the block, its plain twin (the
    same edges, no split) keeps every colour in the dict; the same calls
    must give the same answers, errors and colourings."""
    rng = random.Random(seed)
    left = Graph(a, [e for e in combinations(range(a), 2) if rng.random() < 0.5])
    right = Graph(b, [e for e in combinations(range(b), 2) if rng.random() < 0.5])
    g = join(left, right)
    twin = Graph(g.n, g.edges)
    assert (g.split, twin.split) == (a, 0)
    pair = [EdgeColouring(g), EdgeColouring(twin)]
    copied = []
    for _ in range(rng.randrange(1, 12)):
        kind, op = _random_op(rng, g, pair[0])
        if op is None:
            copied.append((pair, [_observe(p) for p in pair]))
            pair = [p.copy() for p in pair]
            continue
        assert _outcome(lambda: op(pair[0])) == _outcome(lambda: op(pair[1])), kind
        assert _observe(pair[0]) == _observe(pair[1]), kind
    for originals, seen in copied:
        assert [_observe(p) for p in originals] == seen


# -- frozen colourings and their overlays ------------------------------------


def _random_base(rng: random.Random, g: Graph) -> EdgeColouring:
    """A colouring of g to freeze: total and proper, proper on a random part
    of the edges, proper on side edges only (the cross block left for
    `assign_cross_block`), or built by random calls (often improper)."""
    kind = rng.choice(("total", "part", "side", "calls"))
    if kind == "calls":
        psi = EdgeColouring(g)
        for _ in range(rng.randrange(8)):
            op = _random_op(rng, g, psi)[1]
            if op is not None:
                _outcome(lambda: op(psi))
        return psi
    full = random_proper_colouring(g, rng, rng.random())
    keep = [e for e in g.edges
            if (kind == "total" or rng.random() < 0.6)
            and (kind != "side" or not e[0] < g.split <= e[1])]
    psi = EdgeColouring(g)
    psi.assign_many(keep, full.colours(keep))
    return psi


def _overlay_op(rng: random.Random, g: Graph, psi: EdgeColouring):
    """`_random_op`, or one of two writes it does not make: swapping the
    colours of two edges at one vertex (a written edge leaves the colour a
    base edge still has in the base), or colouring the whole cross block."""
    kind = rng.choice(("swap", "cross_block", "other", "other", "other"))
    if kind == "swap":
        v = rng.randrange(g.n)
        at = [(min(v, w), max(v, w)) for w in g.neighbours(v)]
        if len(at) < 2:
            return kind, lambda p: None
        e, f = rng.sample(at, 2)

        def swap(p):
            ce, cf = p.get(*e), p.get(*f)
            if ce is not None and cf is not None:
                p.assign(*e, cf)
                p.assign(*f, ce)
        return kind, swap
    if kind == "cross_block":
        shape = psi.cross_block().shape
        colours = np.array([rng.randrange(2 * g.n) for _ in range(shape[0] * shape[1])],
                           dtype=np.int64).reshape(shape)
        return kind, lambda p: p.assign_cross_block(colours)
    return _random_op(rng, g, psi)


@given(st.integers(1, 6), st.integers(1, 7), st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_overlay_matches_plain_twin(a, b, seed):
    """A copy of a frozen colouring checks only what was written to it (the
    clash search reads the written edges' incidences and the base's index).
    The same writes, through every write path, on it and on a plain twin
    must give the same answers, errors and colourings: the same lowest
    clash, totality and colours.  Copies of the overlay are overlays of the
    same base and must agree too."""
    rng = random.Random(seed)
    left = Graph(a, [e for e in combinations(range(a), 2) if rng.random() < 0.6])
    right = Graph(b, [e for e in combinations(range(b), 2) if rng.random() < 0.6])
    g = join(left, right) if rng.random() < 0.8 else Graph(a + b, list(join(left, right).edges))
    pre = _random_base(rng, g)
    twin = pre.copy()
    base = pre.freeze()
    before = _state(base)
    pair = [base.copy(), twin]
    assert pair[0].overlay() == (base, frozenset(), False)
    assert pair[1].overlay() is None
    for _ in range(rng.randrange(1, 14)):
        kind, op = _overlay_op(rng, g, pair[0])
        if op is None:
            pair = [p.copy() for p in pair]
            assert pair[0].overlay()[0] is base
            continue
        assert _outcome(lambda: op(pair[0])) == _outcome(lambda: op(pair[1])), kind
        assert _observe(pair[0]) == _observe(pair[1]), kind
    assert _state(base) == before


def test_overlay_logs_written_keys():
    g = join(path_graph(3), star(2))
    base = random_proper_colouring(g, random.Random(3), 0.5).freeze()
    psi = base.copy()
    psi.assign(0, 1, 7)
    psi.assign_many([], [])
    assert psi.overlay() == (base, frozenset({(0, 1)}), False)
    psi.assign(2, 4, 8)
    assert psi.overlay() == (base, frozenset({(0, 1)}), True)
    assert psi.copy().overlay() == psi.overlay()
    assert base.overlay() is None


def test_frozen_colouring_refuses_every_write():
    g = join(path_graph(3), star(2))
    base = EdgeColouring(g, {(0, 1): 1, (3, 4): 2}).freeze()
    before = _state(base)
    writes = [
        lambda: base.assign(0, 1, 3),                            # side edge
        lambda: base.assign(0, 4, 3),                            # cross edge
        lambda: base.assign_fresh(1, 2),
        lambda: base.assign_many([(1, 2)], [3]),
        lambda: base.assign_many([(1, 3)], [3]),
        lambda: base.recolour_many([(0, 1)], [3]),
        lambda: base.recolour_many([(0, 4)], [3]),
        lambda: base.recolour_many([], []),
        lambda: base.assign_cross_block(np.arange(9).reshape(3, 3) + 10),
        lambda: base.fill_fresh(),
    ]
    for write in writes:
        with pytest.raises(ParameterError, match="frozen"):
            write()
        assert _state(base) == before
    assert base.freeze() is base
    psi = base.copy()
    psi.fill_fresh()
    assert psi.is_total() and not base.is_total()


@pytest.mark.parametrize("as_join", [False, True], ids=["plain", "join"])
@pytest.mark.parametrize("kind", ["mutable", "frozen", "overlay"])
def test_get_contract(as_join, kind):
    """`get` on every kind of colouring: a pair that is not an edge raises,
    the two orders of a pair read the same colour, an uncoloured edge reads
    None.  The join's cross edges (u < 3 <= v) live in the cross block, its
    other edges in the dict; the plain twin keeps all of them in the dict."""
    g = join(path_graph(3), star(2))
    if not as_join:
        g = Graph(g.n, g.edges)
    coloured = {(0, 1): 1, (3, 4): 2, (0, 4): 3}
    if kind == "overlay":
        psi = EdgeColouring(g, {(0, 1): 1, (3, 4): 2}).freeze().copy()
        psi.assign(4, 0, 3)
    else:
        psi = EdgeColouring(g, coloured)
        if kind == "frozen":
            psi.freeze()
    n = g.n
    not_edges = [(0, 0), (4, 4), (-1, 0), (0, -1), (-1, 4), (4, -2), (0, n),
                 (n, 4), (n, n + 1), (0, 2), (2, 0), (4, 5), (5, 4)]
    for u, v in not_edges:
        with pytest.raises(ParameterError):
            psi.get(u, v)
    assert {e: psi.get(*e) for e in g.edges} == {e: coloured.get(e) for e in g.edges}
    assert all(psi.get(v, u) == psi.get(u, v) for u, v in g.edges)
    assert psi.get(1, 2) is psi.get(3, 5) is psi.get(2, 5) is None


def test_assign_cross_block_matches_assign_many():
    g = join(path_graph(3), star(2))
    colours = [[10 + 3 * i + j for j in range(3)] for i in range(3)]
    bulk = EdgeColouring(g, {(0, 1): 1})
    bulk.assign_cross_block(colours)
    loop = EdgeColouring(g, {(0, 1): 1})
    loop.assign_many([(u, v) for u in range(3) for v in range(3, 6)],
                     [c for row in colours for c in row])
    assert _state(bulk) == _state(loop)
    assert bulk.cross_block().tolist() == colours
    with pytest.raises(ValueError):
        bulk.cross_block()[0, 0] = 5  # the reader is read-only


@pytest.mark.parametrize("colours,dtype", [
    ([[1, 2]], np.int64),                              # wrong shape
    ([[1, 2, 3]] * 3, np.float64),                     # not integers
    ([[1, 2, -1]] + [[3, 4, 5]] * 2, np.int64),        # negative colour
    ([[1, 2, 3]] * 2 + [[4, 5, 2**63]], np.uint64),    # colour beyond int64
])
def test_assign_cross_block_rejects_without_change(colours, dtype):
    g = join(path_graph(3), star(2))
    psi = EdgeColouring(g, {(0, 1): 1})
    with pytest.raises(ParameterError):
        psi.assign_cross_block(np.array(colours, dtype=dtype))
    assert _state(psi) == _state(EdgeColouring(g, {(0, 1): 1}))


def test_assign_cross_block_rejects_a_coloured_block():
    g = join(path_graph(3), star(2))
    psi = EdgeColouring(g, {(1, 4): 7})
    with pytest.raises(ParameterError, match=r"\(1, 4\) is already coloured"):
        psi.assign_cross_block([[1, 2, 3]] * 3)
    assert _state(psi) == _state(EdgeColouring(g, {(1, 4): 7}))


def test_rainbow_copies_examples():
    psi = EdgeColouring(K3, {(0, 1): 0, (0, 2): 1, (1, 2): 2})
    assert rainbow_copies(K3, psi, K3) == [(0, 1, 2)]
    fact = EdgeColouring(K4, FACTORIZATION)
    assert rainbow_copies(K4, fact, K4) == []
    k2 = clique(2)
    assert len(rainbow_copies(K4, fact, k2)) == K4.m


def test_partial_colouring_is_wildcard():
    psi = EdgeColouring(K3, {(0, 1): 5, (0, 2): 5})
    assert not rainbow_copies(K3, psi, K3)
    psi2 = EdgeColouring(K3, {(0, 1): 5})
    assert rainbow_copies(K3, psi2, K3)  # two wildcards cannot clash


@given(st.integers(0, 10**6), st.integers(4, 9), st.floats(0.4, 1.0),
       st.floats(0.0, 1.0), st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_rainbow_k4_scan_matches_brute_force(seed, n, density, coloured, pool):
    """rainbow_copies(g, psi, K4) against every 4-subset of random partial
    colourings: a K4 is rainbow when its coloured edges carry pairwise
    distinct colours, so uncoloured edges are wildcards."""
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    col = {e: rng.randrange(pool) for e in g.edges if rng.random() < coloured}
    psi = EdgeColouring(g, col)
    expected = []
    for quad in combinations(range(n), 4):
        pairs = list(combinations(quad, 2))
        if all(g.has_edge(*e) for e in pairs):
            cols = [col[e] for e in pairs if e in col]
            if len(cols) == len(set(cols)):
                expected.append(quad)
    assert rainbow_copies(g, psi, K4) == expected


def test_recolouring_keeps_books_straight():
    psi = EdgeColouring(K3, {(0, 1): 0, (0, 2): 1})
    psi.assign(0, 1, 1)
    assert not is_proper(K3, psi)
    psi.assign(0, 1, 2)
    assert is_proper(K3, psi)
    assert psi.next_colour == 3


def _brute_clash(g: Graph, col: dict):
    """Lowest vertex with a repeated colour, its lowest such colour, and
    the edges at it with that colour, by per-vertex enumeration."""
    for v in range(g.n):
        counts = Counter(c for e, c in col.items() if v in e)
        repeated = [c for c, k in counts.items() if k > 1]
        if repeated:
            c = min(repeated)
            return v, c, tuple(sorted(e for e in col if v in e and col[e] == c))
    return None


@given(st.integers(0, 10**6), st.integers(2, 10), st.floats(0.2, 1.0),
       st.integers(1, 5))
@settings(max_examples=150, deadline=None)
def test_per_vertex_queries_match_brute_force(seed, n, density, pool):
    """Random partial colourings, built with recolourings of already
    coloured edges, against enumeration of each vertex's edges."""
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    psi = EdgeColouring(g)
    col = {}
    for _ in range(rng.randrange(2 * g.m + 1)):
        u, v = rng.choice(g.edges)
        c = rng.randrange(pool)
        psi.assign(*((u, v) if rng.random() < 0.5 else (v, u)), c)
        col[(u, v)] = c
    clash = _brute_clash(g, col)
    assert find_properness_clash(g, psi) == clash
    # every graph here is under the scan limit: check the numpy path too
    assert colouring._lowest_clash_all(psi) == (clash and clash[:2])
    assert is_proper(g, psi) == (clash is None)
    for v in range(n):
        assert psi.colours_at(v) == {c for e, c in col.items() if v in e}


def _clash_case(rng: random.Random, g: Graph, big: bool, numpy_ints: bool) -> EdgeColouring:
    """A random proper colouring of g, with one edge recoloured to the
    colour of an edge beside it half of the time; `big` moves every
    colour up to end at 2**63 - 1, `numpy_ints` writes them as np.int64."""
    psi = random_proper_colouring(g, rng, rng.random())
    edges = list(g.edges)
    colours = psi.colours(edges)
    if rng.random() < 0.5:
        i = rng.randrange(len(edges))
        x = rng.choice(edges[i])
        beside = [j for j, e in enumerate(edges) if x in e and j != i]
        if beside:
            colours[i] = colours[rng.choice(beside)]
    if big:
        colours = [2**63 - 1 - c for c in colours]
    if numpy_ints:
        colours = list(np.array(colours, dtype=np.int64))
    out = EdgeColouring(g)
    out.assign_many(edges, colours)
    return out


@pytest.mark.parametrize("numpy_ints", [False, True], ids=["int", "np.int64"])
@pytest.mark.parametrize("big", [False, True], ids=["low", "top"])
def test_clash_scan_matches_numpy(big, numpy_ints):
    """The Python scan and the numpy search find the same lowest clash, as
    plain ints, on joins and plain graphs, proper and improper."""
    rng = random.Random(2026 + 2 * big + numpy_ints)
    for _ in range(150):
        a, b = rng.randint(1, 7), rng.randint(0, 7)
        left = Graph(a, [e for e in combinations(range(a), 2) if rng.random() < 0.5])
        right = Graph(b, [e for e in combinations(range(b), 2) if rng.random() < 0.5])
        g = join(left, right)
        if rng.random() < 0.4:
            g = Graph(g.n, g.edges)
        if not g.m:
            continue
        psi = _clash_case(rng, g, big, numpy_ints)
        assert all(type(c) is int for c in psi.colours(g.edges))
        found = colouring._lowest_clash_scan(psi)
        assert found == colouring._lowest_clash_all(psi)
        assert found is None or all(type(x) is int for x in found)


def _graph_of_size(cells: int, as_join: bool) -> Graph:
    """A graph of exactly `cells` side keys plus cross cells: the first
    `cells` pairs of 40 vertices, or the join of 8 vertices holding a few
    side edges with an edgeless right part."""
    if not as_join:
        return Graph(40, list(combinations(range(40), 2))[:cells])
    width = (cells - 4) // 8
    side = list(combinations(range(8), 2))[:cells - 8 * width]
    return join(Graph(8, side), empty_graph(width))


@pytest.mark.parametrize("as_join", [False, True], ids=["plain", "join"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_clash_search_around_the_scan_limit(as_join, offset, monkeypatch):
    """Just under the limit the scan answers, just over it numpy does;
    both agree with the other path and with brute force."""
    g = _graph_of_size(_SCAN_LIMIT + offset, as_join)
    assert len(g.edges) == _SCAN_LIMIT + offset
    scan, search = colouring._lowest_clash_scan, colouring._lowest_clash_all
    calls = []
    for name, real in (("scan", scan), ("numpy", search)):
        monkeypatch.setattr(colouring, real.__name__,
                            lambda psi, real=real, name=name: calls.append(name) or real(psi))
    rng = random.Random(offset)
    for trial in range(20):
        psi = _clash_case(rng, g, trial % 3 == 0, trial % 2 == 1)
        col = dict(zip(g.edges, psi.colours(g.edges)))
        calls.clear()
        assert find_properness_clash(g, psi) == _brute_clash(g, col)
        assert calls == ["scan" if offset <= 0 else "numpy"]
        assert scan(psi) == search(psi)


def test_properness_checks_reject_another_graph():
    psi = EdgeColouring(K3)
    for check in (is_proper, find_properness_clash):
        with pytest.raises(ParameterError):
            check(K4, psi)


def test_colour_ids_must_be_integers():
    g = join(clique(2), clique(2))  # side edges (0, 1) and (2, 3)
    psi = EdgeColouring(g)
    for bad in (lambda: psi.assign(0, 1, 2.5),  # side edge
                lambda: psi.assign(0, 2, 2.5),  # cross edge
                lambda: psi.assign_many([(0, 1), (0, 2), (2, 3)], [1, 2.0, 3])):
        with pytest.raises(ParameterError):
            bad()
    assert len(psi) == 0 and psi.next_colour == 0
    psi.assign_many([(0, 1), (0, 2)], [np.int64(1), 2])
    assert psi.colours([(0, 1), (0, 2)]) == [1, 2]
    # numpy ints are stored as plain ints, so the colour after the top one
    # does not wrap around and the colouring serialises
    top = np.int64(2**63 - 1)
    for write in (lambda p: p.assign(2, 3, top), lambda p: p.assign_many([(2, 3)], [top]),
                  lambda p: p.recolour_many([(0, 3)], [top])):
        p = psi.copy()
        write(p)
        assert p.next_colour == 2**63
        assert all(type(c) is int for c in p.colours(sorted(p.domain())))
        assert json.loads(colouring_to_json(p))["edges"][-1][2] == 2**63 - 1


def test_colour_ids_must_fit_int64():
    top = 2**63 - 1
    g = path_graph(3)
    psi = EdgeColouring(g, {(0, 1): top})
    assert find_properness_clash(g, psi) is None
    for bad in (lambda: psi.assign(1, 2, top + 1),
                lambda: psi.assign_many([(1, 2)], [top + 1]),
                psi.fill_fresh):
        with pytest.raises(ParameterError):
            bad()
    assert len(psi) == 1
    psi.assign(1, 2, top)
    assert find_properness_clash(g, psi) == (1, top, ((0, 1), (1, 2)))


@given(st.integers(0, 10**6), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_random_proper_colouring_is_proper(seed, bias):
    g = hat_k(3, 4)
    psi = random_proper_colouring(g, random.Random(seed), bias)
    assert psi.is_total()
    assert is_proper(g, psi)


def reference_random_proper_colouring(g: Graph, rng, fresh_bias: float) -> EdgeColouring:
    """random_proper_colouring as an edge-by-edge loop of `colours_at` and
    `assign`/`assign_fresh`."""
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


@given(st.integers(0, 10**6), st.integers(1, 9), st.floats(0.1, 1.0),
       st.sampled_from((0.0, 1.0, 0.05, 0.5, None)), st.booleans())
@settings(max_examples=120, deadline=None)
def test_random_proper_colouring_matches_reference(seed, n, density, bias, as_join):
    """The bitmask sampler gives the reference loop's colouring and leaves
    the rng where the loop leaves it."""
    rng = random.Random(seed)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < density])
    if as_join:
        g = join(g, Graph(3, [(0, 1)]))
    if bias is None:
        bias = rng.random()
    ours, ref = random.Random(seed + 1), random.Random(seed + 1)
    psi = random_proper_colouring(g, ours, bias)
    assert _state(psi) == _state(reference_random_proper_colouring(g, ref, bias))
    assert ours.getstate() == ref.getstate()


def test_random_proper_colouring_fresh_bias_one():
    psi = random_proper_colouring(clique(5), random.Random(7), 1.0)
    assert len(psi.colours_used()) == clique(5).m


def test_random_proper_colouring_regression():
    psi = random_proper_colouring(K4, random.Random(0), 0.0)
    got = {e: psi.get(*e) for e in K4.edges}
    assert got == {(0, 1): 2, (0, 2): 0, (0, 3): 1, (1, 2): 1, (1, 3): 0, (2, 3): 2}
    assert len(psi.colours_used()) <= 6


def test_decide_arrows_triangle():
    v = decide_arrows(K3, K3)
    assert v.outcome == "arrows"


def test_decide_arrows_k4_witness_is_factorization():
    v = decide_arrows(K4, K4)
    assert v.outcome == "witness"
    w = v.witness
    assert is_proper(K4, w)
    assert rainbow_copies(K4, w, K4) == []
    assert len(w.colours_used()) == 3
    classes = {}
    for u, vv in K4.edges:
        classes.setdefault(w.get(u, vv), set()).add((u, vv))
    assert sorted(map(sorted, classes.values())) == [
        [(0, 1), (2, 3)], [(0, 2), (1, 3)], [(0, 3), (1, 2)]]


def test_decide_arrows_budget_and_validation():
    with pytest.raises(ParameterError):
        decide_arrows(K4, K4, node_budget=0)
    v = decide_arrows(hat_k(3, 4), K4, node_budget=10)
    assert v.outcome == "unknown"
    assert v.nodes > 10


@pytest.mark.parametrize("g,outcome,nodes", [
    (hat_k(3, 4), "arrows", 71_794),
    (clique(5), "witness", 88),
], ids=["HatK(3,4)", "K5"])
def test_decide_arrows_node_counts(g, outcome, nodes):
    # `decide` prints the node count and verify-all records it, so the
    # search must keep visiting colours in the same order
    v = decide_arrows(g, K4, node_budget=50_000_000)
    assert (v.outcome, v.nodes) == (outcome, nodes)


@pytest.mark.parametrize("g,h", [
    (K3, clique(1)), (K3, empty_graph(2)), (K3, empty_graph(0)), (empty_graph(3), clique(1)),
])
def test_decide_arrows_edgeless_target_always_arrows(g, h):
    # every colouring holds a copy of an edgeless h on at most g.n vertices,
    # and that copy has no edge to repeat a colour on
    assert decide_arrows(g, h) == ArrowsVerdict("arrows", None, 0)


def test_decide_arrows_edgeless_target_too_large_has_witness():
    v = decide_arrows(clique(2), empty_graph(3))
    assert v.outcome == "witness"
    assert v.witness.is_total()


def random_small_graph(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    return Graph(n, pairs[: rng.randint(2, min(9, len(pairs)))])


@pytest.mark.parametrize("seed", range(25))
def test_decide_arrows_matches_partition_oracle_k3(seed):
    g = random_small_graph(seed)
    v = decide_arrows(g, K3)
    assert v.outcome in ("arrows", "witness")
    assert v.arrows == oracle_arrows(g, K3)
    if v.outcome == "witness":
        assert is_proper(g, v.witness)
        assert not rainbow_copies(g, v.witness, K3)


@pytest.mark.parametrize("g,expect", [
    (K3, True),
    (K4, True),  # triangle edges are pairwise adjacent, so always rainbow
    (path_graph(4), False),
    (star(4), False),
    (Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 4)]), True),
])
def test_decide_arrows_selected_k3_cases(g, expect):
    assert decide_arrows(g, K3).arrows == expect
    assert oracle_arrows(g, K3) == expect


def test_decide_arrows_long_path_needs_no_recursion():
    # 1001 edges: deeper than the default recursion limit; 2999 edges: an
    # adjacency build over all edge pairs would take seconds
    for k in (1002, 3000):
        g = path_graph(k)
        start = time.perf_counter()
        verdict = decide_arrows(g, K3)
        assert time.perf_counter() - start < 3
        assert verdict.outcome == "witness"
        assert verdict.witness.is_total() and is_proper(g, verdict.witness)


def test_verdict_shape():
    v = decide_arrows(K3, K3)
    assert isinstance(v, ArrowsVerdict)
    assert v.nodes > 0
    assert v.witness is None


def test_colouring_json_roundtrip():
    psi = EdgeColouring(K4, FACTORIZATION)
    edges = json.loads(colouring_to_json(psi))["edges"]
    assert edges == [[u, v, FACTORIZATION[(u, v)]] for u, v in K4.edges]
