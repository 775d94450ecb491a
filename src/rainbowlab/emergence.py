"""Appearance of small graphs in G(n,p): estimates, checks, and scans.

Four groups of tools:

* ``janson_bound`` -- an exact expected-copy count plus an overlap sum
  feeding the standard nonexistence estimate exp(-lambda^2 / (lambda +
  2*Delta)) for the number of copies of a small graph in G(n,p).
* ``density_condition`` -- the margin min over induced subgraphs J with
  e(J) >= 1 of v(J) - x*e(J), decided exactly by subset scan or min-cut,
  or certified inductively through degeneracy for very large graphs.
* ``verify_structure`` -- empirical audit of the K4-tiled decomposition
  of a graph: deficiency bound, pairwise overlaps, and the tree shape of
  the meet graph of the dense parts.
* ``threshold_scan`` -- a deterministic Monte Carlo driver producing CSV
  rows of success rates with Wilson confidence intervals; an avoider
  trial succeeds only when ``avoiders.attempt`` neither declines nor rejects it.
"""

from __future__ import annotations

import math
import re
import time
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations

import numpy as np

from .avoiders import attempt
from .colouring import decide_arrows
from .errors import ParameterError, SearchExhausted, StructureUnsupported
from .graph import DisjointSets, Graph, aut_order, bits, clique, edge_counts_all_subsets
from .model import sample_gnp, sample_perturbed
from .tiled_k8 import DENSE_PART_PHI, PHI_CEILING, k4_components, phi

__all__ = [
    "JansonEstimate",
    "janson_bound",
    "DensityMarginReport",
    "density_condition",
    "StructureViolation",
    "StructureAudit",
    "verify_structure",
    "parse_probability",
    "ScanConfig",
    "ScanRow",
    "threshold_scan",
    "scan_rows_to_csv",
    "SCAN_MODES",
    "wilson_interval",
]


# -- Janson-style nonexistence estimate ---------------------------------------

_JANSON_VERTEX_CAP = 12
_EXACT_OVERLAP_CAP = 8


@dataclass(frozen=True)
class JansonEstimate:
    """Nonexistence estimate for copies of a fixed graph in G(n,p).

    ``expected_copies`` is the exact expectation of the copy count,
    ``delta_upper`` is an upper bound on the sum over ordered pairs of
    distinct, edge-overlapping copies of the probability that both
    appear, and ``nonexistence_bound`` bounds the probability that no
    copy appears.  The overlap sum is exact for patterns on at most 8
    vertices and a documented upper bound above that.
    """

    expected_copies: float
    delta_upper: float
    nonexistence_bound: float

    def to_json_dict(self) -> dict:
        return {
            "expected_copies": self.expected_copies,
            "delta_upper": self.delta_upper,
            "nonexistence_bound": self.nonexistence_bound,
        }


@lru_cache(maxsize=64)
def _overlap_injection_counts(h: Graph) -> tuple[tuple[int, int, int], ...]:
    """Count partial self-injections of h by overlap size and shared edges.

    Returns triples (k, s, count): the number of injective maps g from a
    k-subset T of V(h) into V(h), k >= 2, such that exactly s >= 1 edges
    of h inside T are mapped onto edges of h.  These are the overlap
    patterns between an anchored copy of h and a second copy sharing k
    vertices with it.
    """
    n = h.n
    counts: dict[tuple[int, int], int] = {}
    vertices = range(n)
    for k in range(2, n + 1):
        for t_set in combinations(vertices, k):
            inner_edges = [
                (a, b) for a, b in combinations(t_set, 2) if h.has_edge(a, b)
            ]
            if not inner_edges:
                continue
            index = {v: i for i, v in enumerate(t_set)}
            pairs = [(index[a], index[b]) for a, b in inner_edges]
            for image in permutations(vertices, k):
                s = 0
                for a, b in pairs:
                    if h.adj[image[a]] >> image[b] & 1:
                        s += 1
                if s:
                    key = (k, s)
                    counts[key] = counts.get(key, 0) + 1
    return tuple((k, s, c) for (k, s), c in sorted(counts.items()))


def _max_edges_by_subset_size(h: Graph) -> list[int]:
    e = edge_counts_all_subsets(h)
    best = [0] * (h.n + 1)
    for mask in range(1 << h.n):
        k = mask.bit_count()
        if e[mask] > best[k]:
            best[k] = e[mask]
    return best


def _falling(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def janson_bound(h: Graph, n: int, p) -> JansonEstimate:
    """Estimate the probability that G(n,p) contains no copy of h.

    p is read by parse_probability and must be exact: a number, a decimal
    literal or a/b, not a c*n^-a/b expression.

    The expectation is computed exactly as C(n, v) * v! / aut * p^e in
    rational arithmetic.  For v(h) <= 8 the overlap sum is the exact
    ordered-pair sum; for 9 <= v(h) <= 12 every overlap class of k shared
    vertices is bounded by all k-vertex injections at the densest
    k-subset exponent, which can only enlarge the sum (and hence keeps
    the nonexistence bound valid).
    """
    if h.n < 1:
        raise ParameterError("pattern graph must have at least one vertex")
    if h.n > _JANSON_VERTEX_CAP:
        raise ParameterError(
            f"janson_bound capped at {_JANSON_VERTEX_CAP} pattern vertices, got {h.n}"
        )
    if h.m < 1:
        raise ParameterError("pattern graph must have at least one edge")
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    pf = parse_probability(p, n)
    if not isinstance(pf, Fraction):
        raise ParameterError(f"janson_bound needs an exact p (a literal or a/b), got {p!r}")

    v, e = h.n, h.m
    if n < v:
        return JansonEstimate(0.0, 0.0, 1.0)
    aut = aut_order(h)
    copies = math.comb(n, v) * math.factorial(v) // aut
    lam = copies * pf**e

    delta = Fraction(0)
    if lam > 0 and e > 0:
        if v <= _EXACT_OVERLAP_CAP:
            acc = Fraction(0)
            for k, s, count in _overlap_injection_counts(h):
                acc += count * _falling(n - v, v - k) * pf ** (2 * e - s)
            delta = Fraction(copies, aut) * acc - copies * pf**e
        else:
            best = _max_edges_by_subset_size(h)
            acc = Fraction(0)
            for k in range(2, v + 1):
                if best[k] == 0:
                    continue
                injections = math.comb(v, k) * _falling(v, k)
                acc += injections * _falling(n - v, v - k) * pf ** (2 * e - best[k])
            delta = Fraction(copies, aut) * acc

    if lam == 0:
        bound = 1.0
    else:
        exponent = lam * lam / (lam + 2 * delta)
        bound = math.exp(-float(exponent)) if exponent < 10**6 else 0.0
    return JansonEstimate(float(lam), float(delta), bound)


# -- density margin of induced subgraphs ---------------------------------------

_EXHAUSTIVE_DENSITY_CAP = 16
_MINCUT_DENSITY_CAP = 120

MARGIN_UNIT = "omega(1)"
MARGIN_LINEAR = "omega(n)"
_MARGIN_REQUIREMENT = {MARGIN_UNIT: Fraction(0), MARGIN_LINEAR: Fraction(1)}


@dataclass(frozen=True)
class DensityMarginReport:
    """Outcome of a density-margin check.

    ``min_value`` is the exact minimum of v(J) - x*e(J) over induced
    subgraphs J with at least one edge (None when only the inductive
    degeneracy certificate was available), ``min_lower_bound`` is the
    proven lower bound on that minimum, ``witness`` the vertex set
    attaining the exact minimum, and ``satisfied`` whether the bound
    required by ``margin`` holds.
    """

    exponent: Fraction
    margin: str
    strategy: str
    min_value: Fraction | None
    min_lower_bound: Fraction
    witness: tuple[int, ...] | None
    satisfied: bool

    def to_json_dict(self) -> dict:
        return {
            "exponent": str(self.exponent),
            "margin": self.margin,
            "strategy": self.strategy,
            "min_value": None if self.min_value is None else str(self.min_value),
            "min_lower_bound": str(self.min_lower_bound),
            "witness": None if self.witness is None else list(self.witness),
            "satisfied": self.satisfied,
        }


def _density_exhaustive(h: Graph, a: int, b: int):
    """Minimize b*v(S) - a*e(S) over subsets with e(S) >= 1, exactly."""
    e = edge_counts_all_subsets(h)
    best = None
    best_mask = 0
    for mask in range(1, 1 << h.n):
        ecnt = e[mask]
        if ecnt == 0:
            continue
        value = b * mask.bit_count() - a * ecnt
        if best is None or value < best:
            best, best_mask = value, mask
    return best, tuple(bits(best_mask))


class _DinicFlow:
    """Dinic max-flow on a small integer-capacity network.

    Sized for the project-selection networks below (a four-layer DAG of at
    most a few thousand nodes), where it replaces a general graph library.
    """

    def __init__(self, n: int):
        self.to: list[int] = []
        self.cap: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(n)]

    def add_arc(self, u: int, v: int, cap: int) -> None:
        self.adj[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.adj[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)

    def _levels(self, s: int) -> list[int]:
        level = [-1] * len(self.adj)
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self.adj[u]:
                v = self.to[arc]
                if self.cap[arc] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        return level

    def _push(self, u: int, t: int, limit: int, level, it) -> int:
        if u == t:
            return limit
        while it[u] < len(self.adj[u]):
            arc = self.adj[u][it[u]]
            v = self.to[arc]
            if self.cap[arc] > 0 and level[v] == level[u] + 1:
                pushed = self._push(v, t, min(limit, self.cap[arc]), level, it)
                if pushed:
                    self.cap[arc] -= pushed
                    self.cap[arc ^ 1] += pushed
                    return pushed
            it[u] += 1
        return 0

    def max_flow(self, s: int, t: int) -> int:
        total = sum(self.cap[arc] for arc in self.adj[s])
        flow = 0
        while True:
            level = self._levels(s)
            if level[t] < 0:
                return flow
            it = [0] * len(self.adj)
            while True:
                pushed = self._push(s, t, total, level, it)
                if not pushed:
                    break
                flow += pushed

    def source_side(self, s: int) -> set[int]:
        seen = {s}
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for arc in self.adj[u]:
                v = self.to[arc]
                if self.cap[arc] > 0 and v not in seen:
                    seen.add(v)
                    queue.append(v)
        return seen


def _density_mincut(h: Graph, a: int, b: int):
    """Exact min of b*v - a*e over induced subgraphs with an edge, via
    max-closure min-cuts (one unrestricted run, then one per forced edge
    when the unrestricted optimum is attained without edges).

    The network has a source (node 0) paying profit ``a`` per selected
    edge, a sink (node 1) charging cost ``b`` per selected vertex, and
    infinite arcs making each edge's endpoints mandatory, so a minimum cut
    encodes the maximum over S of a*e(S) - b*|S|.

    One network serves every run.  It also holds a source arc to each
    vertex, closed (capacity 0) until a forced run opens the two of its
    edge.  The forced runs start from the unrestricted maximum flow: each
    opens its arcs, augments, and restores the saved residual capacities,
    so its cut is the unrestricted cut plus the extra flow.  The witness
    is the set of vertex nodes reachable from the source in the residual
    network, and that set is the same for every maximum flow (it is the
    minimal minimum cut; Picard and Queyranne, 1980), so a warm-started
    run finds the set a run from zero finds.  It is read only when a run
    beats the best so far, so ties still go to the first edge.
    """
    a_total = a * h.m
    inf = a_total + b * h.n + 1
    first_vertex = 2 + h.m
    net = _DinicFlow(first_vertex + h.n)
    for i, (u, v) in enumerate(h.edges):
        net.add_arc(0, 2 + i, a)
        net.add_arc(2 + i, first_vertex + u, inf)
        net.add_arc(2 + i, first_vertex + v, inf)
    for w in range(h.n):
        net.add_arc(first_vertex + w, 1, b)
    opener = []  # opener[w]: the arc id of the closed source arc to vertex w
    for w in range(h.n):
        opener.append(len(net.to))
        net.add_arc(0, first_vertex + w, 0)

    def chosen() -> tuple[int, ...]:
        side = net.source_side(0)
        return tuple(w for w in range(h.n) if first_vertex + w in side)

    value = a_total - net.max_flow(0, 1)
    if value > 0:
        return -value, chosen()
    saved = net.cap[:]
    best = None
    best_set: tuple[int, ...] = ()
    for u, v in h.edges:
        net.cap[opener[u]] = net.cap[opener[v]] = inf
        val = -net.max_flow(0, 1)
        if best is None or val > best:
            best, best_set = val, chosen()
        net.cap[:] = saved
    return -best, best_set


def _degeneracy(h: Graph) -> int:
    """Max over the peeling of the degree of the vertex removed, always
    removing one of minimum remaining degree (smallest-last order).  This
    is the degeneracy, whichever minimum-degree vertex each step takes.
    The candidates sit on a heap of (degree, vertex) with lazy deletion:
    an entry whose degree is stale, or whose vertex is gone, is skipped.
    O((n + m) log n)."""
    degs = [h.degree(v) for v in range(h.n)]
    heap = [(d, v) for v, d in enumerate(degs)]
    heapify(heap)
    alive = h.vertex_mask()
    worst = 0
    while heap:
        d, v = heappop(heap)
        if not alive >> v & 1 or d != degs[v]:
            continue
        worst = max(worst, d)
        alive ^= 1 << v
        for u in bits(h.adj[v] & alive):
            degs[u] -= 1
            heappush(heap, (degs[u], u))
    return worst


def density_condition(h: Graph, exponent, margin: str) -> DensityMarginReport:
    """Check min over induced J with e(J) >= 1 of v(J) - x*e(J) >= margin.

    ``margin`` is "omega(1)" (minimum must be >= 0) or "omega(n)"
    (minimum must be >= 1): with p growing strictly faster than n^-x,
    those margins make the expected count of every induced subgraph grow
    unboundedly, respectively linearly.
    """
    if margin not in _MARGIN_REQUIREMENT:
        raise ParameterError(
            f"margin must be one of {sorted(_MARGIN_REQUIREMENT)}, got {margin!r}"
        )
    try:
        x = Fraction(exponent)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"exposure exponent {exponent!r} is not rational") from exc
    if x < 0:
        raise ParameterError(f"exponent must be >= 0, got {exponent!r}")
    if h.m == 0:
        raise ParameterError("density margin needs a pattern with at least one edge")
    required = _MARGIN_REQUIREMENT[margin]
    a, b = x.numerator, x.denominator

    if h.n <= _EXHAUSTIVE_DENSITY_CAP:
        scaled, witness = _density_exhaustive(h, a, b)
        strategy = "exhaustive"
    elif h.n <= _MINCUT_DENSITY_CAP:
        scaled, witness = _density_mincut(h, a, b)
        strategy = "mincut"
    else:
        d = _degeneracy(h)
        if a * d > b:
            raise StructureUnsupported(
                f"graph too large for exact scans and the degeneracy certificate "
                f"needs x*degeneracy <= 1 (x = {x}, degeneracy = {d})",
                offending=h,
            )
        return DensityMarginReport(
            exponent=x,
            margin=margin,
            strategy="degeneracy",
            min_value=None,
            min_lower_bound=Fraction(1),
            witness=None,
            satisfied=True,
        )

    min_value = Fraction(scaled, b)
    return DensityMarginReport(
        exponent=x,
        margin=margin,
        strategy=strategy,
        min_value=min_value,
        min_lower_bound=min_value,
        witness=witness,
        satisfied=min_value >= required,
    )


# -- structural audit of K4-tiled decompositions -------------------------------


@dataclass(frozen=True)
class StructureViolation:
    claim: str
    detail: str
    parts: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {"claim": self.claim, "detail": self.detail, "parts": list(self.parts)}


@dataclass(frozen=True)
class StructureAudit:
    """Audit of the K4-tiled parts of a graph.

    ``parts`` holds (vertices, edge count, deficiency) per maximal
    K4-tiled subgraph; ``violations`` the failed structural claims;
    ``tree_like`` whether the dense parts (deficiency >= 3) meet
    pairwise in at most one vertex and their meet graph is a forest.
    """

    parts: tuple[tuple[tuple[int, ...], int, int], ...]
    leftover_edges: int
    violations: tuple[StructureViolation, ...]
    tree_like: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "parts": [
                {"vertices": list(vs), "edges": m, "phi": f}
                for vs, m, f in self.parts
            ],
            "leftover_edges": self.leftover_edges,
            "violations": [v.to_json_dict() for v in self.violations],
            "tree_like": self.tree_like,
            "ok": self.ok,
        }


def verify_structure(g: Graph) -> StructureAudit:
    """Check the structural claims behind the rainbow-K8 avoider.

    Decomposes g into maximal K4-tiled parts and verifies that (a) every
    part has deficiency phi = 8 - 5v + 2e at most 7, (b) no two parts
    with phi >= 3 share two or more vertices, and (c) the meet graph of
    the phi >= 3 parts (edges between parts sharing a vertex) is a
    forest, so each connected cluster of dense parts is a tree.
    """
    comps, leftover = k4_components(g)
    summaries = []
    vertex_sets = []
    phis = []
    for sub, back in comps:
        summaries.append((tuple(back), sub.m, phi(sub)))
        vertex_sets.append(set(back))
        phis.append(phi(sub))

    violations: list[StructureViolation] = []
    for i, (vs, _, f) in enumerate(summaries):
        if f > PHI_CEILING:
            violations.append(
                StructureViolation(
                    claim="phi-at-most-7",
                    detail=f"part {i} on {len(vs)} vertices has phi = {f}",
                    parts=(i,),
                )
            )

    dense = [i for i, f in enumerate(phis) if f >= DENSE_PART_PHI]
    for i, j in combinations(dense, 2):
        shared = vertex_sets[i] & vertex_sets[j]
        if len(shared) >= 2:
            violations.append(
                StructureViolation(
                    claim="dense-parts-share-at-most-one-vertex",
                    detail=(
                        f"parts {i} and {j} (phi {phis[i]}, {phis[j]}) share "
                        f"vertices {sorted(shared)}"
                    ),
                    parts=(i, j),
                )
            )

    sets = DisjointSets(dense)
    forest = True
    for i, j in combinations(dense, 2):
        if not (vertex_sets[i] & vertex_sets[j]):
            continue
        if not sets.union(i, j):
            forest = False
            violations.append(
                StructureViolation(
                    claim="dense-part-meets-form-forest",
                    detail=f"parts {i} and {j} close a cycle in the meet graph",
                    parts=(i, j),
                )
            )

    tree_like = forest and not any(
        v.claim == "dense-parts-share-at-most-one-vertex" for v in violations
    )
    return StructureAudit(
        parts=tuple(summaries),
        leftover_edges=len(leftover),
        violations=tuple(violations),
        tree_like=tree_like,
    )


# -- threshold scans ------------------------------------------------------------

SCAN_MODES = ("avoider-success-rate", "containment-rate", "decider-on-tiny")

_WILSON_Z = 1.959963984540054  # two-sided 95%


_PROBABILITY_EXPR = re.compile(
    r"^\s*(?:(?P<coeff>[0-9]+(?:\.[0-9]+)?)\s*\*\s*)?"
    r"n\s*\^\s*(?P<sign>-?)\s*(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?\s*$"
)


def parse_probability(spec, n: int) -> Fraction | float:
    """Evaluate a probability at n: the one parser of every ``--p``.

    A number, a decimal literal or ``a/b`` gives an exact Fraction (whose
    float() is the correctly rounded float of the literal); a ``c*n^-a/b``
    expression gives a float.
    """
    if not isinstance(spec, (int, float, Fraction)):
        spec = str(spec).strip()
    m = isinstance(spec, str) and _PROBABILITY_EXPR.match(spec)
    if m:
        if n <= 0:
            raise ParameterError(f"n must be positive to evaluate {spec!r}")
        try:
            exp = Fraction(int(m.group("num")), int(m.group("den") or 1))
            if m.group("sign"):
                exp = -exp
            p = float(m.group("coeff") or 1.0) * float(n) ** float(exp)
        except (OverflowError, ZeroDivisionError) as exc:
            raise ParameterError(f"cannot evaluate probability {spec!r} at n={n}") from exc
    else:
        try:
            p = Fraction(spec)
        except (ValueError, OverflowError, ZeroDivisionError) as exc:
            raise ParameterError(
                f"cannot parse probability {spec!r}; use a literal, a/b or c*n^-a/b"
            ) from exc
    if not 0 <= p <= 1:
        raise ParameterError(f"probability {spec!r} evaluates to {p} at n={n}")
    return p


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ParameterError("Wilson interval needs at least one trial")
    if not 0 <= successes <= trials:
        raise ParameterError("successes must lie in [0, trials]")
    z = _WILSON_Z
    phat = successes / trials
    denom = 1 + z * z / trials
    centre = phat + z * z / (2 * trials)
    spread = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, (centre - spread) / denom), min(1.0, (centre + spread) / denom)


@dataclass(frozen=True)
class ScanConfig:
    ell: int
    n_values: tuple[int, ...]
    p_specs: tuple  # literals, a/b or c*n^-a/b expression strings
    trials: int
    mode: str
    seed: int
    threads: int = 1  # accepted and validated; starts no threads

    def __post_init__(self):
        if self.mode not in SCAN_MODES:
            raise ParameterError(f"mode must be one of {SCAN_MODES}, got {self.mode!r}")
        if self.trials < 1:
            raise ParameterError(f"trials must be >= 1, got {self.trials}")
        if self.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {self.seed}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")
        if not self.n_values or not self.p_specs:
            raise ParameterError("scan needs at least one n and one p")
        if self.mode != "containment-rate" and self.ell not in (4, 5, 6, 7, 8):
            raise ParameterError(
                f"avoider/decider scans support ell in 4..8, got {self.ell}"
            )
        if self.ell < 2:
            raise ParameterError(f"ell must be >= 2, got {self.ell}")


@dataclass(frozen=True)
class ScanRow:
    n: int
    p: float
    trials: int
    successes: int
    rate: float
    ci_low: float
    ci_high: float
    mode: str
    elapsed_ms: float


CSV_HEADER = "n,p,trials,successes,rate,ci_low,ci_high,mode,elapsed_ms"


def scan_rows_to_csv(rows, deterministic: bool = False) -> str:
    """Render rows as CSV.  With ``deterministic`` the timing column is
    zeroed so that replayed runs compare byte-for-byte."""
    out = [CSV_HEADER]
    for r in rows:
        ms = 0.0 if deterministic else r.elapsed_ms
        out.append(
            f"{r.n},{r.p:.12g},{r.trials},{r.successes},{r.rate:.6f},"
            f"{r.ci_low:.6f},{r.ci_high:.6f},{r.mode},{ms:.3f}"
        )
    return "\n".join(out) + "\n"


def _scan_trial(config: ScanConfig, n: int, p: float, rng) -> bool:
    if config.mode == "containment-rate":
        g = sample_gnp(n, p, rng)
        return next(g.iter_cliques((config.ell + 1) // 2), None) is not None
    if config.mode == "avoider-success-rate":
        declined, problem = attempt(sample_perturbed(n, p, rng), config.ell)
        return declined is None and problem is None
    instance = sample_perturbed(n, p, rng)
    try:
        verdict = decide_arrows(instance.graph(), clique(config.ell))
    except SearchExhausted:
        return False
    return verdict.arrows


def threshold_scan(config: ScanConfig) -> list[ScanRow]:
    """Run the configured Monte Carlo scan over the (n, p) grid.

    Each trial draws its random stream from (seed, n index, p index,
    trial index), so results do not depend on execution order.  Trials run
    in order on the calling thread; ``config.threads`` starts no threads.
    """
    rows = []
    for ni, n in enumerate(config.n_values):
        for pi, spec in enumerate(config.p_specs):
            p = float(parse_probability(spec, n))
            start = time.perf_counter()
            successes = sum(
                _scan_trial(config, n, p, np.random.default_rng([config.seed, ni, pi, t]))
                for t in range(config.trials)
            )
            elapsed = (time.perf_counter() - start) * 1000.0
            low, high = wilson_interval(successes, config.trials)
            rows.append(
                ScanRow(
                    n=n,
                    p=p,
                    trials=config.trials,
                    successes=successes,
                    rate=successes / config.trials,
                    ci_low=low,
                    ci_high=high,
                    mode=config.mode,
                    elapsed_ms=elapsed,
                )
            )
    return rows
