"""Pinned colour ids of the three perturbed-instance avoiders and of the
tiled-K8 certificate colourer.

`colouring_to_json` is what the CLI `colours` output and `results.json`
are made of, so every avoider must keep handing out exactly the same
colour ids.  The hashes were recorded before the bulk colouring paths
existed.  The K4 instances hold all five component kinds; the K6 set has
one instance with non-empty M0 x M2 blocks on both sides and sampled ones
whose fresh colours start above an unused palette.  The label-search hash
pins what `avoider_k6._label_search` returns (the quadruple or None, and
whether the budget ran out) on 223 triangle unions at five budgets from
1 to 10,000 nodes, with and without M0, so the search keeps its node
order and budget semantics.  The `colour_tiled`
hash covers the first 300 graphs of the seed-5 tiled corpus (`corpus_graph`,
which the `tiled` audit draws from), with their certificates; the
`find_stretched_sequence` hash covers the generating sequences the colourer
replays for those graphs.  A wider hash pins every stage of the colourer
on corpus seeds 1-3 and on unfiltered draws: the sequence, the replay of
each configuration the colourer may try, and the colouring and certificate
it returns.  The `random_tiled_graph` hash covers the raw draws the corpus
is made of, and the next `rng.random()` after each, so it pins the calls a
draw makes on its rng as well as the graph it returns; a second draw hash
does the same for long draws on up to 40 vertices, whose index draws over
more than 21 vertices take `Random.sample`'s set branch.  The corpus-draw
hash pins `corpus_graph`'s graphs with the number of draws each took.
The corpus-audit hash pins what `check_tiled_corpus` reports: its passing
result on seeds 0-2, and a failing one on seed 42 with `certificate_covers`
made to reject every certificate of a graph with exactly three rainbow K4s,
which pins the per-graph messages, their order and how the summary and
details truncate them.
The perturbed-sampler hash covers `sample_perturbed`'s two random parts on
a grid that reaches both `sample_gnp` paths (rejection over all pairs up to
n = 800, gap skipping at n = 3,000) in the gate's three p regimes, and
`perturbed_cliques` of each instance, in the order it returns them.
The lemma-sampler hash does the same for the six falsification samplers,
seeded as `certify_lemma` seeds them: each colouring (for the surviving
triangle, the matchings), the overlay log of a template copy, `next_colour`
and the next `rng.random()`.
The lemma-clash hash pins `find_properness_clash`, `is_total()` and
`len()` on 40 colourings from each of the K4, K5, pair, K6 and K7
samplers, half of them with one edge recoloured to the colour of an edge
beside it (on the K6/K7 joins, a side edge every other time), so it
covers both clash paths, proper and improper colourings, and overlays
with and without a cross write.
The K7/survivor hash pins what `extract_rainbow_k7` returns (the clique,
or the error's type, message and detail) on 150 sampled colourings with
0-600 proper rewrites of fan and block edges, which decide the fan edges
pruned, and the triangle `surviving_triangle` returns for 500 sampled
batches of matchings.
The `decide_arrows` hash pins the outcome, node count and witness colours
of 200 seeded small decisions (three budgets, six targets) and of the
HatK(3,4), K5 and 300,000-node K10 decisions against K4, so the search
keeps its node order and budget semantics.
"""

import hashlib
import json
import random
from dataclasses import astuple
from itertools import combinations

import numpy as np
import pytest

from rainbowlab import verification
from rainbowlab.avoider_k4 import avoid_k4, classify_components
from rainbowlab.avoider_k6 import _label_search, avoid_k6, triangle_union
from rainbowlab.avoiders import perturbed_cliques
from rainbowlab.colouring import colouring_to_json, decide_arrows, find_properness_clash
from rainbowlab.errors import (
    CounterexampleFound,
    OutOfRegime,
    SearchExhausted,
    StructureUnsupported,
)
from rainbowlab.graph import Graph, clique, components, hat_k, path_graph, star
from rainbowlab.lemma_lab import (
    extract_rainbow_k7,
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
from rainbowlab.model import _DENSE_PAIR_CAP, PerturbedInstance, sample_perturbed
from rainbowlab.tiled_k8 import (
    _colour_variants,
    _partial_colouring,
    avoid_k8_perturbed,
    colour_tiled,
    corpus_graph,
    find_stretched_sequence,
    phi,
    random_tiled_graph,
)

WHEEL5 = [(0, i) for i in range(1, 6)] + [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]


def digest(psi) -> str:
    return hashlib.sha256(colouring_to_json(psi).encode()).hexdigest()


def wheel_instance(n: int) -> PerturbedInstance:
    """5-wheels on both sides (M2 edges) plus loose triangles (M0 edges)."""
    u = n // 2
    left = WHEEL5 + [(3, 6), (3, 7), (6, 7), (10, 11), (11, 12), (10, 12)]
    right = WHEEL5 + [(7, 8), (8, 9), (7, 9), (12, 13)]
    return PerturbedInstance(n, 0.0, Graph(u, left), Graph(n - u, right))


@pytest.mark.parametrize("n,seed,expected", [
    (120, 11, "c589584b28919ba54b73be26264a83e59365c62f16d81c42c38896491cb10850"),
    (160, 17, "680cb21fb50b4ae48ed8098505da0ec31249d7aae255b90520ec4d811c006918"),
    (200, 4, "0f04b93720f4d10b00d25feb44dd5c8f2ff00e901678fa81bc70676dee0f609a"),
])
def test_avoid_k4_colour_ids(n, seed, expected):
    inst = sample_perturbed(n, 1 / n, np.random.default_rng([seed, 0]))
    kinds = {c.kind for part in (inst.left, inst.right)
             for c in classify_components(part)}
    assert kinds == {"K1", "K2", "P3", "K13", "P4"}
    assert digest(avoid_k4(inst)) == expected


@pytest.mark.parametrize("n,seed,expected", [
    (120, 0, "acd3d018e7678984d9744b188b5146fa77472b1e210d261bc8a11928add8d881"),
    (160, 3, "d7e3869065140ea83e1cb718deb71323f0cd9bdcab4a39283dc3cac4ad0108e4"),
])
def test_avoid_k6_colour_ids_sampled(n, seed, expected):
    inst = sample_perturbed(n, n ** -0.7, np.random.default_rng([seed, 0]))
    assert digest(avoid_k6(inst)) == expected


def test_avoid_k6_colour_ids_with_m0_m2_blocks():
    psi = avoid_k6(wheel_instance(101))
    assert digest(psi) == (
        "67aa99b6cd60f5e0853a5e0cc99b2b7475fe3377f6f14fbccf8c719aba30865a")


def wheel_strip(k: int) -> Graph:
    """WHEEL5 with a strip of k more triangles: each new vertex is joined
    to both ends of the last edge, starting from the rim edge (4, 5)."""
    edges = list(WHEEL5)
    a, b = 4, 5
    for v in range(6, 6 + k):
        edges += [(a, v), (b, v)]
        a, b = b, v
    return Graph(6 + k, sorted(edges))


def label_search_cases():
    """Every triangle-union component with edges of the K4-free parts of
    sampled K6-regime instances near the threshold (222 of them), then
    WHEEL5 with a 60-triangle strip."""
    for n, e in ((60, 0.5), (120, 0.55), (200, 0.6)):
        for t in range(10):
            inst = sample_perturbed(n, n ** -e, np.random.default_rng([7, n, t]))
            for part in (inst.left, inst.right):
                if part.cliques(4):
                    continue
                for sub, _ in components(triangle_union(part)):
                    if sub.m:
                        yield sub.triangles()
    yield wheel_strip(60).triangles()


def test_label_search_outcomes():
    """Small budgets stop the search part-way, so they pin its node order;
    the corpus has found, proven-none and out-of-budget outcomes."""
    h = hashlib.sha256()
    outcomes = set()
    for tris in label_search_cases():
        for allow_m0 in (False, True):
            for budget in (1, 10, 100, 1000, 10_000):
                q, out_of_budget = _label_search(tris, allow_m0, budget)
                rows = None if q is None else [sorted(m) for m in (q.m0, q.m1, q.m2, q.m3)]
                outcomes.add((q is not None, out_of_budget))
                h.update(json.dumps([rows, out_of_budget]).encode())
    assert outcomes == {(True, False), (False, False), (False, True)}
    assert h.hexdigest() == (
        "d599562636f850dbfeaad382b06c3ad43b0927b882cb1c93b0e6ea9a88177aaf")


@pytest.mark.parametrize("n,seed,expected", [
    (120, 0, "99a14cf4d78a62c427d267c34fd046fffdfd8329d452859b4d99a34a5f898072"),
    (160, 1, "f72125b8227a8079645ee5e310954a3d2274ad24fb0f29be806601b3942f4624"),
    (200, 2, "3368d2b5563755c91c1412f61ed0dedb338667874d8a8afb8a7570188f80bbf6"),
])
def test_avoid_k8_perturbed_colour_ids(n, seed, expected):
    inst = sample_perturbed(n, n ** -0.45, np.random.default_rng([seed, 0]))
    assert digest(avoid_k8_perturbed(inst)) == expected


# (name, p(n), clique orders): the K4 sweep's two densities, the K6 and the
# K8 sweep's; each regime hashes the cliques of its own order and of the
# larger ones, which are mostly empty there.  At n = 50 every regime hashes
# all three orders, so cliques split between the sides in several ways.
P_REGIMES = [
    ("k4-c0.3", lambda n: 0.3 * n ** -1.25, (4, 6, 8)),
    ("k4-c0.7", lambda n: 0.7 * n ** -1.25, (4, 6, 8)),
    ("k6", lambda n: n ** -0.7, (6, 8)),
    ("k8", lambda n: n ** -0.45, (8,)),
]


def test_perturbed_sampler_edges_and_cliques():
    assert 800 * 799 // 2 <= _DENSE_PAIR_CAP < 3000 * 2999 // 2
    h = hashlib.sha256()
    for n in (50, 400, 800, 3000):
        for name, p, orders in P_REGIMES:
            for trial in range(2):
                inst = sample_perturbed(n, p(n), np.random.default_rng([n, trial]))
                h.update(json.dumps([n, name, trial, inst.left.edges,
                                     inst.right.edges]).encode())
                for r in orders if n > 50 else (4, 6, 8):
                    h.update(json.dumps([r, perturbed_cliques(inst, r)]).encode())
    assert h.hexdigest() == (
        "65a47aac69cacf53728392b754e4831d2f66670bd21484863fb01c598807dd31")


def test_colour_tiled_colour_ids_and_certificates():
    h = hashlib.sha256()
    for index in range(300):
        g, _ = corpus_graph(5, index)
        psi, cert = colour_tiled(g)
        h.update(json.dumps([phi(g), cert.kind, cert.triangle, cert.matching,
                             colouring_to_json(psi)]).encode())
    assert h.hexdigest() == (
        "bff09bb3015e3f7c2a65ac092583d9cbb73fb3bd6249fbaaf194337c8160a5e0")


def test_stretched_sequences_of_the_corpus():
    h = hashlib.sha256()
    for index in range(300):
        g, _ = corpus_graph(5, index)
        seq = find_stretched_sequence(g)
        h.update(json.dumps([seq.base_vertices, [astuple(st) for st in seq.steps],
                             seq.n]).encode())
    assert h.hexdigest() == (
        "9615c22603782ae3441fa36f2f0a15487bffd00cf1b50740c9f9cc6be2019fe5")


def tiled_colourer_graphs():
    """Corpus seeds 1-3, 1,000 graphs each, then the 250 unfiltered draws
    (phi above the ceiling included) of `test_first_edge_step_structure`."""
    for seed in (1, 2, 3):
        for index in range(1000):
            yield corpus_graph(seed, index)[0]
    rng = random.Random(19)
    for _ in range(250):
        yield random_tiled_graph(rng, max_vertices=9, steps=5)


def test_tiled_colourer_outputs():
    """Every stage of the certificate colourer on 3,250 graphs: the
    stretched sequence, the replay under each configuration
    `_colour_variants` yields (the winning one and the ones tried before
    it), and `colour_tiled`'s colouring and certificate, or the error it
    raises."""
    h = hashlib.sha256()
    for g in tiled_colourer_graphs():
        seq = find_stretched_sequence(g)
        replays = []
        for cfg in _colour_variants(seq):
            psi = _partial_colouring(g, seq, **cfg)
            replays.append([sorted(cfg.get("suppress", ())),
                            cfg.get("pair_first_edge_step", False),
                            colouring_to_json(psi), psi.next_colour])
        try:
            psi, cert = colour_tiled(g)
        except (OutOfRegime, SearchExhausted) as exc:
            tiled = type(exc).__name__
        else:
            tiled = [cert.kind, cert.triangle, cert.matching,
                     colouring_to_json(psi), psi.next_colour]
        h.update(json.dumps([phi(g), seq.base_vertices,
                             [astuple(st) for st in seq.steps],
                             replays, tiled]).encode())
    assert h.hexdigest() == (
        "f48c7add33d6ec5f6c7168dcac64aeb8d663726841abe4c4b2618cd5a794f49a")


def test_random_tiled_graph_draws():
    h = hashlib.sha256()
    for max_vertices in (8, 9, 10, 12):
        for steps in range(1, 7):
            for seed in range(50):
                rng = random.Random(f"draw:{max_vertices}:{steps}:{seed}")
                g = random_tiled_graph(rng, max_vertices=max_vertices, steps=steps)
                h.update(json.dumps([g.n, g.edges, rng.random()]).encode())
    assert h.hexdigest() == (
        "b21403da68a113979f56af4087062ec06f2cfe549233115de97d9e06cc14af80")


def test_random_tiled_graph_long_draws():
    h = hashlib.sha256()
    top = 0
    for max_vertices in (24, 32, 40):
        for steps in (10, 14, 18):
            for seed in range(40):
                rng = random.Random(f"wide:{max_vertices}:{steps}:{seed}")
                g = random_tiled_graph(rng, max_vertices=max_vertices, steps=steps)
                top = max(top, g.n)
                h.update(json.dumps([g.n, g.edges, rng.random()]).encode())
    assert top == 28
    assert h.hexdigest() == (
        "bd94a97f7d5baebfea85286343fbd265998fdf2db5bd6a1a6b4c83b61dfa1cbd")


def test_corpus_graphs_and_draw_counts():
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for index in range(1000):
            g, draws = corpus_graph(seed, index)
            h.update(json.dumps([g.n, g.edges, draws]).encode())
    assert h.hexdigest() == (
        "3a9268a2adba507a433b714bd4db565bf1c7bf74e32fa061d9d835eb1c4d6d0c")


def test_tiled_corpus_audit(monkeypatch):
    h = hashlib.sha256()
    for seed in (0, 1, 2):
        result = verification.check_tiled_corpus(seed, "quick")
        assert result.passed
        h.update(json.dumps(result.to_json_dict()).encode())
    covers = verification.certificate_covers
    monkeypatch.setattr(verification, "certificate_covers",
                        lambda cert, quads: len(quads) != 3 and covers(cert, quads))
    result = verification.check_tiled_corpus(42, "quick")
    assert not result.passed
    assert len(result.details["violations"]) == 10
    h.update(json.dumps(result.to_json_dict()).encode())
    assert h.hexdigest() == (
        "f9ed20d550ee4005eaae726cdb8f604c738a18fa467ca575190a0516387a6217")


# name, scaffold, sampler, trials per seed (a K6/K7 colouring has 20k-36k
# cross edges, so its JSON costs 20-60 ms)
SAMPLERS = [
    ("extract-rainbow-k4", rainbow_k4_scaffold, sample_rainbow_k4_colouring, 60),
    ("extract-rainbow-k5", rainbow_k5_scaffold, sample_rainbow_k5_colouring, 60),
    ("disjoint-colour-triangles", triangle_pair_instance, sample_triangle_pair_colouring, 60),
    ("extract-rainbow-k6", rainbow_k6_scaffold, sample_rainbow_k6_colouring, 15),
    ("surviving-triangle", spoked_fan_instance, sample_fan_matchings, 60),
    ("extract-rainbow-k7", rainbow_k7_scaffold, sample_rainbow_k7_colouring, 15),
]


def test_lemma_sampler_draws():
    h = hashlib.sha256()
    for name, build, sample, trials in SAMPLERS:
        inst = build()
        for seed in range(3):
            for trial in range(trials):
                rng = random.Random(f"{name}:{seed}:{trial}")
                out = sample(inst, rng)
                if isinstance(out, list):  # the surviving triangle's matchings
                    record = [out]
                else:
                    view = out.overlay()
                    log = None if view is None else [sorted(view[1]), view[2]]
                    record = [colouring_to_json(out), log, out.next_colour]
                h.update(json.dumps(record + [rng.random()]).encode())
    assert h.hexdigest() == (
        "7106cdd3c15c3981e70b883a4ed769f0fe4512158b5c49041ace1fbdf57dbcf4")


def test_lemma_colouring_clashes_totals_and_sizes():
    h = hashlib.sha256()
    for name, build, sample, _ in SAMPLERS:
        if name == "surviving-triangle":
            continue
        inst = build()
        g = inst.graph
        side = [(u, v) for u, v in g.edges if not u < g.split <= v]
        for trial in range(40):
            rng = random.Random(f"clash:{name}:{trial}")
            psi = sample(inst, rng)
            if trial % 2:
                # recolour one edge (a side edge every other time, as the
                # edges of a K6/K7 join are nearly all cross edges) with the
                # colour of an edge beside it
                u, v = rng.choice(side if trial % 4 == 3 else g.edges)
                x = rng.choice((u, v))
                w = rng.choice([w for w in g.neighbours(x) if w not in (u, v)])
                psi.assign(u, v, psi.get(x, w))
            h.update(json.dumps(
                [find_properness_clash(g, psi), psi.is_total(), len(psi)]).encode())
    assert h.hexdigest() == (
        "6be6d4f37249fe9d6014c127cb12c9b9e0af29536c7fc8a81189dfa516950532")


def rewrite_fan(rng: random.Random, sc, psi, count: int) -> None:
    """`count` tries at a write that keeps psi proper.  A fan edge of the
    first two spokes (half of the time, of the first three fan triangles)
    takes a block colour, another fan edge's colour or a fresh colour; or
    a block triangle edge takes the colour of such a fan edge, which is
    then recoloured fresh half of the time."""
    head = sc.right_keys[: 2 * len(sc.right_keys) // len(sc.fan.spokes)]
    at = {}  # the colours at each vertex written so far

    def write(u, v, c):
        for x in (u, v):
            if x not in at:
                at[x] = psi.colours_at(x)
        if c in at[u] or c in at[v]:
            return
        old = psi.get(u, v)
        for x in (u, v):
            at[x].discard(old)
            at[x].add(c)
        psi.assign(u, v, c)

    for _ in range(count):
        pick = rng.random()
        fan_key = rng.choice(head[: rng.choice((7, len(head)))])
        if pick < 0.3:
            write(*rng.choice(rng.choice(sc.blocks).edges()[:3]), psi.get(*fan_key))
            if rng.random() < 0.5:
                write(*fan_key, psi.next_colour)
        elif pick < 0.7:
            write(*fan_key, psi.get(*rng.choice(sc.left_keys)))
        elif pick < 0.85:
            write(*fan_key, psi.get(*rng.choice(sc.right_keys)))
        else:
            write(*fan_key, psi.next_colour)


def k7_outcome(sc, psi) -> list:
    try:
        return ["ok", extract_rainbow_k7(sc, psi)]
    except StructureUnsupported as exc:
        return [type(exc).__name__, str(exc), astuple(exc.offending)]
    except CounterexampleFound as exc:
        return [type(exc).__name__, str(exc), exc.payload["detail"]]


def test_k7_extractions_and_surviving_triangles():
    h = hashlib.sha256()
    sc = rainbow_k7_scaffold()
    for trial in range(150):
        rng = random.Random(f"k7-rewrites:{trial}")
        psi = sample_rainbow_k7_colouring(sc, rng)
        rewrite_fan(rng, sc, psi, rng.randrange(601))
        h.update(json.dumps(k7_outcome(sc, psi)).encode())
    inst = spoked_fan_instance()
    for trial in range(500):
        matchings = sample_fan_matchings(inst, random.Random(f"survivor:{trial}"))
        h.update(json.dumps(surviving_triangle(inst, matchings)).encode())
    assert h.hexdigest() == (
        "5e971b08cc267acce8a1ee03eefc9c0652e8c4f29fea6cd01b45de128c512236")


DECIDE_TARGETS = {
    "K3": clique(3),
    "K4": clique(4),
    "P3": path_graph(3),
    "C4": Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "K1,3": star(3),
    "C5": Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
}


def decide_cases():
    """200 seeded (g, h, budget) cases on 3-9 vertices, then the three
    decisions the CLI and the gate print node counts for."""
    rng = random.Random(20261020)
    for _ in range(200):
        n = rng.randint(3, 9)
        p = rng.choice((0.3, 0.5, 0.7, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        name = rng.choice(sorted(DECIDE_TARGETS))
        yield g, DECIDE_TARGETS[name], rng.choice((50, 1000, 20_000))
    yield hat_k(3, 4), clique(4), 50_000_000
    yield clique(5), clique(4), 50_000_000
    yield clique(10), clique(4), 300_000


def test_decide_arrows_outcomes_nodes_and_witnesses():
    h = hashlib.sha256()
    for g, target, budget in decide_cases():
        v = decide_arrows(g, target, node_budget=budget)
        rows = None if v.witness is None else [
            [a, b, v.witness.get(a, b)] for a, b in g.edges]
        h.update(json.dumps([v.outcome, v.nodes, rows]).encode())
    assert h.hexdigest() == (
        "547ef9de75a7ddc3f2389f2be5bc4be9499e761c880bda51e74fab97dd50281a")
