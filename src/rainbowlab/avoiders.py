"""The perturbed-instance avoiders, the one avoider trial and its check.

``AVOIDERS`` maps a clique order ell to the constructor whose colouring
has no rainbow K_ell: the K4 avoider serves ell in {4, 5}, the K6 avoider
ell in {6, 7}, the tiled-K8 avoider ell = 8.  Every avoider trial (the
``avoid-k*`` commands, the avoider-success-rate scan, the acceptance
sweeps) goes through ``attempt``: it runs ``AVOIDERS[ell]``, returns a
refusal by design as declined, and otherwise returns the verdict of
``validate``, the one check of avoider output.  A refusal is reported as
out of regime, except that the K8 acceptance sweep counts a
``SearchExhausted`` as a violation.
"""

from __future__ import annotations

from itertools import combinations

from .avoider_k4 import avoid_k4
from .avoider_k6 import avoid_k6
from .colouring import EdgeColouring, is_proper
from .errors import OutOfRegime, RainbowLabError, SearchExhausted, StructureUnsupported
from .graph import Graph
from .model import PerturbedInstance
from .tiled_k8 import RED, avoid_k8_perturbed

__all__ = ["AVOIDERS", "attempt", "perturbed_cliques", "validate"]

AVOIDERS = {4: avoid_k4, 5: avoid_k4, 6: avoid_k6, 7: avoid_k6, 8: avoid_k8_perturbed}


def _side_levels(part: Graph, r: int) -> list:
    """One side's cliques by size: entry s holds the s-cliques, for s from
    0 up to r or to the last size the side has.  A graph with no K_s has no
    K_(s+1), so the first empty size ends the list and no larger size is
    searched.  Entry 1, one clique per vertex, is the range of the
    vertices; `_pair_levels` makes it tuples only where it pairs."""
    if not part.n:
        return [[()]]
    levels = [[()], range(part.n)]
    for s in range(2, r + 1):
        found = part.cliques(s)
        if not found:
            break
        levels.append(found)
    return levels


def _shifted(level, off: int) -> list[tuple[int, ...]]:
    """One entry of `_side_levels` as vertex tuples, ids shifted by off."""
    if isinstance(level, range):
        return [(v + off,) for v in level]
    return [tuple([v + off for v in c]) for c in level] if off else level


def _pair_levels(left: list, right: list, r: int, off: int) -> list[tuple[int, ...]]:
    """Every union of a left k-clique and a right (r - k)-clique, the right
    ids shifted by off: k rising, then the right clique, then the left one,
    each side in its own order.  Only sizes that pair are made tuples."""
    out = []
    for k in range(max(0, r + 1 - len(right)), min(r, len(left) - 1) + 1):
        lows = _shifted(left[k], 0)
        for high in _shifted(right[r - k], off):
            for low in lows:
                out.append(low + high)
    return out


def perturbed_cliques(instance: PerturbedInstance, r: int) -> list[tuple[int, ...]]:
    """Every r-clique of the perturbed graph.

    The seed is complete bipartite, so an r-set is a clique exactly when
    its intersection with each side is a clique of that side's random
    graph; pairing every left k-clique with every right (r - k)-clique is
    exhaustive.  Each side is searched one size at a time and only up to
    its first empty size, which loses nothing: a side without a K_s has no
    larger clique, so no pair needs one.  A size is listed as cliques of
    the perturbed graph only when the other side has cliques of the
    complementary size.
    """
    off = instance.u_size
    return _pair_levels(_side_levels(instance.left, r), _side_levels(instance.right, r), r, off)


def _colours(psi: EdgeColouring, vs) -> list:
    return [psi.get(u, v) for u, v in combinations(vs, 2)]


def validate(instance: PerturbedInstance, psi: EdgeColouring, ell: int) -> str | None:
    """The first reason psi is not a rainbow-K_ell-free colouring of the
    perturbed graph, or None.

    Checks, in order: psi is total; psi is proper (``is_proper`` raises
    ParameterError when psi colours a different graph); for ell = 8, every
    rainbow K4 inside one random half uses RED, the invariant the tiled-K8
    avoider rests on; no clique of ``perturbed_cliques(instance, ell)`` is
    rainbow.
    """
    if not psi.is_total():
        return "colouring not total"
    if not is_proper(instance.graph(), psi):
        return "colouring not proper"
    off = instance.u_size
    left = _side_levels(instance.left, ell)
    right = _side_levels(instance.right, ell)
    if ell == 8:
        for levels, shift in ((left, 0), (right, off)):
            for vs in _shifted(levels[4], shift) if len(levels) > 4 else ():
                cols = _colours(psi, vs)
                if len(set(cols)) == 6 and RED not in cols:
                    return f"rainbow K4 without red at {vs}"
    # For ell = 8 this scan is a backstop: every K8 of the perturbed graph
    # has four vertices in one half, so a rainbow K8 holds a side rainbow
    # K4 without RED and the red-cover check above has already returned.
    pairs = ell * (ell - 1) // 2
    for vs in _pair_levels(left, right, ell, off):
        if len(set(_colours(psi, vs))) == pairs:
            return f"rainbow K{ell} at {vs}"
    return None


def attempt(instance: PerturbedInstance, ell: int) -> tuple[RainbowLabError | None, str | None]:
    """One avoider trial: (declined, problem).

    ``declined`` is the refusal ``AVOIDERS[ell]`` raised by design, with
    ``problem`` None; otherwise ``declined`` is None and ``problem`` is
    ``validate``'s verdict on the colouring, None when it is accepted.
    """
    try:
        psi = AVOIDERS[ell](instance)
    except (StructureUnsupported, OutOfRegime, SearchExhausted) as exc:
        return exc, None
    return None, validate(instance, psi, ell)
