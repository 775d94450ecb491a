"""The four benchmark workloads and their independent output checks.

Each workload turns a workload seed into units of work, runs every unit
through rainbowlab's public functions, and re-checks the outputs by direct
enumeration.  A unit ends as "ok", "declined" (the library refused the
input by design) or "failed" (a check failed or an unexpected exception
escaped).  Units are grouped into fixed batches; the runner times batches
and units.  Spans are opened only around the benchmark's own calls into
each module, under the per-layer metric names they feed.
"""

from __future__ import annotations

import random
from itertools import combinations, product

import numpy as np

from rainbowlab import (
    avoider_k4,
    avoider_k6,
    colouring,
    emergence,
    graph,
    lemma_lab,
    model,
    tiled_k8,
    verification,
)
from rainbowlab.errors import (
    CounterexampleFound,
    OutOfRegime,
    SearchExhausted,
    StructureUnsupported,
)

from harness import (
    DECLINED,
    FAILED,
    OK,
    Outcome,
    reference_containers,
    reference_loop,
    verdict_of,
)

# Warm-up units use an index no timed run reaches, so the warm-up never
# repeats a timed input.
WARMUP = 10**6


class Workload:
    """Units of work derived from a seed.  `unit(i)` runs and checks unit i;
    `batch_start(b)` may run a checked item once per batch."""

    name: str
    batch_units: int
    reference = (reference_containers, reference_loop)  # see harness.Phase
    reference_threads = 1  # threads the workload's own work runs on
    phase = None  # the harness.Phase running this workload, if any

    def __init__(self, seed: int, tracer, threads: int = 2):
        self.seed = seed
        self.tracer = tracer
        self.threads = threads

    def setup(self) -> None:
        """Build the fixed inputs."""

    def warmup(self) -> None:
        self.unit(WARMUP)

    def batch_start(self, batch: int) -> Outcome | None:
        return None

    def unit(self, index: int) -> Outcome:
        raise NotImplementedError

    def checkpoint(self) -> None:
        """Called between the library calls of a unit that takes seconds:
        samples the host speed there too (the time is not counted)."""
        if self.phase is not None:
            self.phase.time_reference()


def _is_rainbow(psi, vs) -> bool:
    cols = [psi.get(u, v) for u, v in combinations(vs, 2)]
    return None not in cols and len(set(cols)) == len(cols)


def colouring_problems(n: int, edges, psi) -> list[str]:
    """Totality and properness of psi on the graph with vertices 0..n-1 and
    the given sequence of edges, decided here by reading every edge's colour
    through ``psi.get`` rather than by the colouring's own bookkeeping."""
    seen = [set() for _ in range(n)]
    uncoloured, clashes = 0, []
    get = psi.get
    for u, v in edges:
        c = get(u, v)
        if c is None:
            uncoloured += 1
            continue
        at_u, at_v = seen[u], seen[v]
        if c in at_u or c in at_v:
            clashes.append((u, v))
        at_u.add(c)
        at_v.add(c)
    problems = []
    if uncoloured:
        problems.append(f"{uncoloured} of {len(edges)} edges uncoloured")
    if clashes:
        problems.append(f"colouring not proper: colour of {clashes[0]} repeats at an endpoint")
    if len(psi) != len(edges):
        problems.append(f"{len(psi)} edges coloured, the graph has {len(edges)}")
    return problems


def library_check_problems(g, psi, own: list[str]) -> list[str]:
    """is_total and is_proper must agree with the benchmark's own verdict."""
    library_ok = psi.is_total() and colouring.is_proper(g, psi)
    if library_ok == (not own):
        return []
    return [f"is_total/is_proper say {library_ok}, direct enumeration disagrees"]


def side_cliques(part, k: int) -> list[tuple[int, ...]]:
    """Every k-clique of a graph, as sorted tuples, by extending each clique
    with its common neighbours above its largest vertex."""
    adj = [set() for _ in range(part.n)]
    for u, v in part.edges:
        adj[u].add(v)
        adj[v].add(u)
    cliques = [()]
    for _ in range(k):
        cliques = [
            c + (w,)
            for c in cliques
            for w in (range(part.n) if not c else sorted(adj[c[0]]))
            if (not c or w > c[-1]) and all(w in adj[x] for x in c)
        ]
    return cliques


def join_cliques(instance, r: int) -> list[tuple[int, ...]]:
    """Every r-clique of a perturbed instance: a clique of the left part
    joined with a clique of the right part (the seed is complete
    bipartite), with sizes adding up to r."""
    off = instance.u_size
    out = []
    for k in range(r + 1):
        right = [tuple(v + off for v in b) for b in side_cliques(instance.right, r - k)]
        out += [a + b for a in side_cliques(instance.left, k) for b in right]
    return out


def join_edges(instance):
    """The edges of a perturbed instance: both random parts and the join."""
    off = instance.u_size
    yield from instance.left.edges
    yield from ((u + off, v + off) for u, v in instance.right.edges)
    yield from product(range(off), range(off, instance.n))


# -- dense-join -----------------------------------------------------------------

# (kind, clique size, n, p for unit index i); K4 alternates c = 0.3 / 0.7 as
# the acceptance gate does.
DENSE_TRIALS = (
    ("k4", 4, 800, lambda i: (0.3, 0.7)[i % 2] * 800**-1.25),
    ("k6", 6, 600, lambda i: 600**-0.7),
    ("k8", 8, 240, lambda i: 240**-0.45),
)


def side_rainbow_k4_without_red(instance, psi):
    """A rainbow K4 inside one random half that avoids tiled_k8.RED, or None."""
    off = instance.u_size
    for part, shift in ((instance.left, 0), (instance.right, off)):
        for quad in side_cliques(part, 4):
            vs = tuple(v + shift for v in quad)
            if _is_rainbow(psi, vs) and tiled_k8.RED not in {
                psi.get(u, v) for u, v in combinations(vs, 2)
            }:
                return vs
    return None


class DenseJoin(Workload):
    """One unit: a K4 (n=800), a K6 (n=600) and a K8 (n=240) avoider trial on
    fresh perturbed instances, each fully validated."""

    name = "dense-join"
    batch_units = 2
    reference = (reference_containers,)

    def unit(self, index: int) -> Outcome:
        records, problems = [], []
        declined = False
        for kind, r, n, p_of in DENSE_TRIALS:
            verdict, record, found = self._trial(kind, r, n, p_of(index), index)
            records.append(record)
            problems += [f"unit {index} {kind}: {msg}" for msg in found]
            declined |= verdict == DECLINED
            self.checkpoint()
        return Outcome(verdict_of(problems, declined), records, problems)

    def _trial(self, kind: str, r: int, n: int, p: float, index: int):
        tr = self.tracer
        rng = np.random.default_rng([self.seed, r, index])
        with tr.span(f"model.sample_ms.{kind}"):
            instance = model.sample_perturbed(n, p, rng)
        with tr.span(f"graph.build_ms.{kind}"):
            g = instance.graph()
        tr.count(f"graph.edges.{kind}", g.m)
        problems: list[str] = []
        try:
            if kind == "k4":
                with tr.span("avoider_k4.avoid_ms"):
                    psi = avoider_k4.avoid_k4(instance)
            elif kind == "k6":
                with tr.span("avoider_k6.matchings_ms"):
                    problems += self._quadruple_problems(instance)
                with tr.span("avoider_k6.avoid_ms"):
                    psi = avoider_k6.avoid_k6(instance)
            else:
                with tr.span("emergence.structure_ms"):
                    audit = emergence.verify_structure(self._random_part(instance))
                try:
                    with tr.span("tiled_k8.avoid_ms"):
                        psi = tiled_k8.avoid_k8_perturbed(instance)
                except SearchExhausted as exc:
                    # The K8 gate counts an exhausted search as a violation.
                    return FAILED, [kind, FAILED, g.m], [f"SearchExhausted: {exc}"]
                if not audit.ok:
                    problems.append("coloured despite a structure violation")
        except (StructureUnsupported, OutOfRegime, SearchExhausted) as exc:
            tr.count(f"declined.{kind}", 1)
            verdict = verdict_of(problems, True)
            return verdict, [kind, verdict, g.m, type(exc).__name__], problems
        edges = list(join_edges(instance))
        own = colouring_problems(instance.n, edges, psi)
        if g.m != len(edges):
            own.append(f"graph has {g.m} edges, the instance {len(edges)}")
        with tr.span(f"colouring.check_ms.{kind}"):
            problems += library_check_problems(g, psi, own)
        problems += own
        with tr.span(f"verification.rainbow_scan_ms.{kind}"):
            cliques = verification.perturbed_cliques(instance, r)
            rainbow = [vs for vs in cliques if _is_rainbow(psi, vs)]
        if sorted(cliques) != sorted(join_cliques(instance, r)):
            problems.append(f"perturbed_cliques disagrees with direct enumeration of K{r}s")
        if kind == "k8":
            red_free = side_rainbow_k4_without_red(instance, psi)
            if red_free is not None:
                problems.append(f"rainbow K4 without red at {red_free}")
        if rainbow:
            problems.append(f"rainbow K{r} at {rainbow[0]}")
        colours = len(psi.colours_used())
        tr.count(f"verification.cliques.{kind}", len(cliques))
        tr.count(f"colouring.colours.{kind}", colours)
        verdict = verdict_of(problems, False)
        return verdict, [kind, verdict, g.m, colours, len(cliques)], problems

    @staticmethod
    def _quadruple_problems(instance) -> list[str]:
        """Re-find each triangle component's matchings and re-check them by
        scanning its triangles, as the K6 gate does."""
        for part in (instance.left, instance.right):
            for sub, _back in graph.components(avoider_k6.triangle_union(part)):
                if sub.m == 0:
                    continue
                quad = avoider_k6.find_matchings(sub)
                if not avoider_k6.verify_quadruple(sub.triangles(), quad):
                    return ["matching quadruple fails the triangle scan"]
        return []

    @staticmethod
    def _random_part(instance):
        off = instance.u_size
        inside = list(instance.left.edges) + [
            (u + off, v + off) for u, v in instance.right.edges
        ]
        return graph.Graph(instance.n, sorted(inside))


# -- lemma-falsify --------------------------------------------------------------


def _rainbow_clique_problems(g, psi, vs, size: int) -> list[str]:
    if len(set(vs)) != size:
        return [f"expected {size} distinct vertices, got {vs}"]
    if not all(g.has_edge(u, v) for u, v in combinations(vs, 2)):
        return [f"{vs} is not a clique"]
    if not _is_rainbow(psi, vs):
        return [f"{vs} is not rainbow"]
    return []


def _triangle_pair_problems(inst, psi, out) -> list[str]:
    fan_tri, cherry_tri = out
    if not set(fan_tri) <= set(inst.fan.vertices()):
        return [f"{fan_tri} is not a fan triangle"]
    if not set(cherry_tri) <= set(inst.cherry.vertices()):
        return [f"{cherry_tri} is not a cherry triangle"]
    for tri in out:
        if len(set(tri)) != 3 or not all(
            inst.graph.has_edge(u, v) for u, v in combinations(tri, 2)
        ):
            return [f"{tri} is not a triangle"]
    cols = [psi.get(u, v) for tri in out for u, v in combinations(tri, 2)]
    if len(set(cols)) != 6:
        return [f"triangles {fan_tri} and {cherry_tri} share a colour"]
    return []


def _surviving_problems(inst, matchings, tri) -> list[str]:
    g = inst.graph
    removed = {(min(u, v), max(u, v)) for m in matchings for u, v in m}
    for u, v in combinations(tri, 2):
        if not g.has_edge(u, v) or (min(u, v), max(u, v)) in removed:
            return [f"{tri} is not an intact triangle"]
    if len(set(tri)) != 3:
        return [f"{tri} is not a triangle"]
    return []


# short name, certify_lemma name, scaffold constructor, sampler, extractor, check.
# Library functions are named, and looked up when called, so that a test can
# substitute a broken one.
LEMMAS = (
    ("k4", "extract-rainbow-k4", "rainbow_k4_scaffold",
     "sample_rainbow_k4_colouring", "extract_rainbow_k4",
     lambda inst, psi, out: _rainbow_clique_problems(inst.graph, psi, out, 4)),
    ("k5", "extract-rainbow-k5", "rainbow_k5_scaffold",
     "sample_rainbow_k5_colouring", "extract_rainbow_k5",
     lambda inst, psi, out: _rainbow_clique_problems(inst.graph, psi, out, 5)),
    ("pair", "disjoint-colour-triangles", "triangle_pair_instance",
     "sample_triangle_pair_colouring", "disjoint_colour_triangles",
     _triangle_pair_problems),
    ("k6", "extract-rainbow-k6", "rainbow_k6_scaffold",
     "sample_rainbow_k6_colouring", "extract_rainbow_k6",
     lambda inst, psi, out: _rainbow_clique_problems(inst.graph, psi, out, 6)),
    ("surv", "surviving-triangle", "spoked_fan_instance",
     "sample_fan_matchings", "surviving_triangle", _surviving_problems),
    ("k7", "extract-rainbow-k7", "rainbow_k7_scaffold",
     "sample_rainbow_k7_colouring", "extract_rainbow_k7",
     lambda inst, psi, out: _rainbow_clique_problems(inst.graph, psi, out, 7)),
)


class LemmaFalsify(Workload):
    """One unit: one falsification trial of each of the six lemmas, seeded
    ``name:seed:trial`` as certify_lemma seeds them."""

    name = "lemma-falsify"
    batch_units = 100
    reference = (reference_containers,)

    def setup(self) -> None:
        self.scaffolds = {}
        if {full for _, full, *_ in LEMMAS} != set(lemma_lab.LEMMA_NAMES):
            raise RuntimeError("the benchmark's lemma table no longer matches LEMMA_NAMES")
        for short, _, build, *_ in LEMMAS:
            with self.tracer.span(f"lemma_lab.build_ms.{short}"):
                self.scaffolds[short] = getattr(lemma_lab, build)()

    def unit(self, index: int) -> Outcome:
        tr = self.tracer
        records, problems = [], []
        declined = False
        for short, full, _, sample, extract, check in LEMMAS:
            inst = self.scaffolds[short]
            rng = random.Random(f"{full}:{self.seed}:{index}")
            with tr.span(f"lemma_lab.sample_ms.{short}"):
                args = getattr(lemma_lab, sample)(inst, rng)
            try:
                with tr.span(f"lemma_lab.extract_ms.{short}"):
                    out = getattr(lemma_lab, extract)(inst, args)
            except CounterexampleFound as exc:
                problems.append(f"unit {index} {short}: counterexample: {exc}")
                records.append([short, "counterexample"])
                continue
            except (StructureUnsupported, OutOfRegime) as exc:
                declined = True
                records.append([short, DECLINED, type(exc).__name__])
                continue
            found = check(inst, args, out)
            problems += [f"unit {index} {short}: {msg}" for msg in found]
            records.append([short, FAILED if found else OK, out])
        return Outcome(verdict_of(problems, declined), records, problems)


# -- tiled-search ---------------------------------------------------------------

DECIDE_NODES = 71_794
RESOLVE_BUDGET = 2_000_000


def phi_class(f: int) -> str:
    return "0-2" if f <= 2 else "3-5" if f <= 5 else "6-7"


def certificate_problems(cert, f: int, quads) -> list[str]:
    """Class rule for phi = f and soundness against the rainbow K4 copies."""
    if cert is None:
        return ["no certificate"]
    allowed = (
        cert.kind == "no-rainbow" if f <= 2 else cert.rank <= 1 if f <= 5 else cert.rank <= 2
    )
    if not allowed:
        return [f"certificate {cert.kind} not allowed for phi={f}"]
    if cert.kind == "no-rainbow":
        covers = not quads
    elif cert.kind == "triangle":
        covers = all(set(cert.triangle) <= set(q) for q in quads)
    else:
        matching = cert.matching or ()
        covers = len(matching) <= 3 and all(
            any(u in q and v in q for u, v in matching) for q in quads
        )
    return [] if covers else [f"certificate {cert.kind} misses a rainbow K4"]


def decider_problems(verdict) -> list[str]:
    if verdict.outcome != "arrows" or verdict.nodes != DECIDE_NODES:
        return [
            f"decide_arrows(HatK(3,4), K4) gave {verdict.outcome} after "
            f"{verdict.nodes} nodes, expected arrows after {DECIDE_NODES}"
        ]
    return []


class TiledSearch(Workload):
    """One unit: one corpus graph handled as check_tiled_corpus handles it,
    plus the re-solve on every graph.  Each batch also re-runs the exact
    decider on HatK(3,4) -> K4."""

    name = "tiled-search"
    batch_units = 250
    reference = (reference_loop,)

    def setup(self) -> None:
        self.k4 = graph.clique(4)
        self.hatk34 = graph.hat_k(3, 4)

    def batch_start(self, batch: int) -> Outcome:
        tr = self.tracer
        with tr.span("colouring.decide_ms"):
            verdict = colouring.decide_arrows(self.hatk34, self.k4, node_budget=50_000_000)
        tr.count("colouring.decide_nodes", verdict.nodes)
        problems = decider_problems(verdict)
        return Outcome(verdict_of(problems, False), [verdict.outcome, verdict.nodes], problems)

    def unit(self, index: int) -> Outcome:
        tr = self.tracer
        rng = random.Random(f"corpus:{self.seed}:{index}")
        redraws = 0
        with tr.span("tiled_k8.generate_ms"):
            while True:
                g = tiled_k8.random_tiled_graph(rng, steps=rng.randint(1, 6))
                f = tiled_k8.phi(g)
                if f <= 7:
                    break
                redraws += 1
        tr.count("tiled_k8.redraws", redraws)
        tr.count(f"tiled_k8.phi_class.{phi_class(f)}", 1)
        try:
            with tr.span("tiled_k8.colour_ms"):
                psi, cert = tiled_k8.colour_tiled(g)
        except OutOfRegime as exc:
            return Outcome(DECLINED, [f, redraws, DECLINED, type(exc).__name__])
        except SearchExhausted as exc:
            return Outcome(FAILED, [f, redraws, FAILED], [f"graph {index}: {exc}"])
        own = colouring_problems(g.n, g.edges, psi)
        with tr.span("colouring.proper_ms"):
            problems = library_check_problems(g, psi, own) + own
        with tr.span("colouring.rainbow_ms"):
            quads = colouring.rainbow_copies(g, psi, self.k4)
        if sorted(quads) != [q for q in side_cliques(g, 4) if _is_rainbow(psi, q)]:
            problems.append("rainbow_copies disagrees with direct enumeration")
        problems += certificate_problems(cert, f, quads)
        try:
            with tr.span("tiled_k8.resolve_ms"):
                seq = tiled_k8.find_stretched_sequence(g, node_budget=RESOLVE_BUDGET)
        except SearchExhausted:
            problems.append("re-solve budget exhausted")
        else:
            if sorted(seq.all_edges()) != list(g.edges):
                problems.append("re-solved sequence misses edges")
            if seq.phi_value() != f:
                problems.append(f"phi {f} != 2*gamma+beta value {seq.phi_value()}")
        verdict = verdict_of(problems, False)
        record = [f, redraws, verdict, cert.kind, len(psi.colours_used()), len(quads)]
        return Outcome(verdict, record, [f"graph {index}: {msg}" for msg in problems])


# -- gate-threads ---------------------------------------------------------------

SCAN_N = (50, 100, 200)
SCAN_P = ("0.3*n^-5/4", "0.7*n^-5/4")
SCAN_TRIALS = 10


def scan_problems(rows) -> list[str]:
    want = [(n, spec) for n in SCAN_N for spec in SCAN_P]
    if len(rows) != len(want):
        return [f"scan returned {len(rows)} rows, expected {len(want)}"]
    for row, (n, spec) in zip(rows, want):
        if row.n != n or row.p != emergence.parse_probability(spec, n):
            return [f"scan row ({row.n}, {row.p}) out of grid order"]
        if row.trials != SCAN_TRIALS or not 0 <= row.successes <= row.trials:
            return [f"scan row n={n} counts {row.successes}/{row.trials}"]
        if row.rate != row.successes / row.trials:
            return [f"scan row n={n} rate {row.rate} != successes/trials"]
    return []


class GateThreads(Workload):
    """One unit: the quick acceptance gate followed by the avoider scan, at
    `threads` threads; every call's result is checked."""

    name = "gate-threads"
    batch_units = 1
    # Its trials run on a two-thread pool, which a busy second vCPU slows
    # more than it slows one thread.
    reference_threads = 2

    def _calls(self):
        s, t = self.seed, self.threads
        return (
            ("verification.certificates_s", lambda: verification.check_certificates("quick")),
            ("verification.avoid_k4_s", lambda: verification.check_avoid_k4(s, "quick", t)),
            ("verification.avoid_k6_s", lambda: verification.check_avoid_k6(s, "quick", t)),
            ("verification.tiled_corpus_s", lambda: verification.check_tiled_corpus(s, "quick", t)),
            ("verification.avoid_k8_s", lambda: verification.check_avoid_k8(s, "quick", t)),
            ("verification.reference_bounds_s", lambda: verification.check_reference_bounds("quick")),
            ("emergence.scan_s", self._scan),
        )

    def _scan(self):
        config = emergence.ScanConfig(
            ell=4, n_values=SCAN_N, p_specs=SCAN_P, trials=SCAN_TRIALS,
            mode="avoider-success-rate", seed=self.seed, threads=self.threads,
        )
        return emergence.threshold_scan(config)

    def warmup(self) -> None:
        # The whole gate takes over ten seconds; check_certificates, its
        # cheapest call, loads what the others share.
        verification.check_certificates("quick")

    def unit(self, index: int) -> Outcome:
        # Every unit runs the same gate, so the index does not matter.
        records, problems = [], []
        for name, call in self._calls():
            with self.tracer.span(name):
                result = call()
            if name == "emergence.scan_s":
                problems += scan_problems(result)
                records.append([name, emergence.scan_rows_to_csv(result, deterministic=True)])
            else:
                if not result.passed:
                    problems.append(f"{result.name}: {result.summary}")
                records.append([name, result.to_json_dict()])
            self.checkpoint()
        return Outcome(verdict_of(problems, False), records, problems)


WORKLOADS = {w.name: w for w in (DenseJoin, LemmaFalsify, TiledSearch, GateThreads)}
