"""Random models: G(n,p) and the dense-seed-plus-perturbation instances.

The seed is the complete bipartite graph on parts of size floor(n/2) and
ceil(n/2); the perturbation is G(n,p) on the same vertex set.  Random
edges across the parts coincide with seed edges, so an instance keeps
only the random edges that fall inside a part.

Every sampler here takes its generator from the caller.  The stream rule:
a trial's generator is ``numpy.random.default_rng([seed, *path])``, where
the path names the trial's place in its run (the clique order or sweep,
the grid indices, then the trial index).  So each trial has its own
stream, and no result depends on the order in which trials run.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .graph import Graph, join

__all__ = ["PerturbedInstance", "sample_gnp", "sample_perturbed"]


# Above this many vertex pairs, rejection over all pairs is replaced by
# geometric gap skipping (memory stays proportional to the edge count).
_DENSE_PAIR_CAP = 4_000_000


def sample_gnp(n: int, p: float, rng: np.random.Generator) -> Graph:
    return Graph(n, _gnp_edges(n, p, rng))


def _gnp_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """The edges of one G(n,p) draw, sorted.

    Up to `_DENSE_PAIR_CAP` pairs, one uniform draw per pair, compared
    with p; above it, geometric gaps between hits.  Either way the hit
    pair indices are decoded by `_decode_pairs`, so past the draw the
    cost follows the edges, not the n^2 pairs.
    """
    if n < 0:
        raise ParameterError(f"n must be >= 0, got {n}")
    if n > sys.maxsize:
        raise ParameterError(f"n must be at most {sys.maxsize}, got {n}")
    if not (0.0 <= p <= 1.0):
        raise ParameterError(f"p must be a probability, got {p}")
    pairs = n * (n - 1) // 2
    if pairs == 0 or p == 0.0:
        return []
    if pairs <= _DENSE_PAIR_CAP:
        return _decode_pairs(n, np.flatnonzero(rng.random(pairs) < p))
    return _sparse_gnp_edges(n, pairs, p, rng)


def _sparse_gnp_edges(n: int, pairs: int, p: float, rng: np.random.Generator):
    """Skip between hits with geometric gaps, then decode pair indices."""
    chunks = []
    pos = -1
    batch = max(16, int(pairs * p * 1.2))
    while True:
        gaps = rng.geometric(p, batch)
        cumulative = np.cumsum(gaps) + pos
        chunks.append(cumulative[cumulative < pairs])
        if cumulative[-1] >= pairs:
            break
        pos = int(cumulative[-1])
    return _decode_pairs(n, np.concatenate(chunks))


def _decode_pairs(n: int, t: np.ndarray) -> list[tuple[int, int]]:
    """The pairs (u, v), u < v, with the increasing pair indices t."""
    # Pairs (u, v), u < v, are ranked lexicographically; the first index
    # with left endpoint u is C(u) = u*(2n - u - 1)/2.  Invert with a
    # float estimate, then correct the rounding.
    top = 2 * n - 1
    u = ((top - np.sqrt(top * top - 8.0 * t)) / 2).astype(np.int64)
    for _ in range(2):
        u = np.where(u * (top - u) // 2 > t, u - 1, u)
        u = np.where((u + 1) * (top - u - 1) // 2 <= t, u + 1, u)
    v = t - u * (top - u) // 2 + u + 1
    return list(zip(u.tolist(), v.tolist()))


@dataclass
class PerturbedInstance:
    """Complete bipartite seed on a ⌊n/2⌋ + ⌈n/2⌉ split, plus random edges
    inside each part (in part-local vertex ids)."""

    n: int
    p: float
    left: Graph
    right: Graph
    _graph: Graph | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        u = self.n // 2
        if self.left.n != u or self.right.n != self.n - u:
            raise ParameterError(
                f"part sizes {self.left.n}+{self.right.n} do not match n={self.n}"
            )

    @property
    def u_size(self) -> int:
        return self.left.n

    def graph(self) -> Graph:
        if self._graph is None:
            self._graph = join(self.left, self.right)
        return self._graph


def sample_perturbed(n: int, p: float, rng: np.random.Generator) -> PerturbedInstance:
    """Sample G(n,p) on the full vertex set and keep the part-internal edges
    (cross edges are already in the seed)."""
    if n < 2:
        raise ParameterError(f"perturbed model needs n >= 2, got {n}")
    edges = _gnp_edges(n, p, rng)
    u = n // 2
    left_edges = [(a, b) for a, b in edges if b < u]
    right_edges = [(a - u, b - u) for a, b in edges if a >= u]
    return PerturbedInstance(
        n=n, p=p, left=Graph(u, left_edges), right=Graph(n - u, right_edges)
    )
