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


def _side_cliques(part: Graph, k: int, shift: int) -> list[tuple[int, ...]]:
    if k == 0:
        return [()]
    return [tuple(v + shift for v in c) for c in part.cliques(k)]


def perturbed_cliques(instance: PerturbedInstance, r: int) -> list[tuple[int, ...]]:
    """Every r-clique of the perturbed graph.

    The seed is complete bipartite, so an r-set is a clique exactly when
    its intersection with each side is a clique of that side's random
    graph; enumerating side-clique pairs is exhaustive.
    """
    off = instance.u_size
    out = []
    for k in range(r + 1):
        left = _side_cliques(instance.left, k, 0)
        if not left:
            continue
        for right in _side_cliques(instance.right, r - k, off):
            for a in left:
                out.append(a + right)
    return out


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
    if ell == 8:
        off = instance.u_size
        for part, shift in ((instance.left, 0), (instance.right, off)):
            for quad in part.cliques(4):
                vs = tuple(v + shift for v in quad)
                cols = _colours(psi, vs)
                if len(set(cols)) == 6 and RED not in cols:
                    return f"rainbow K4 without red at {vs}"
    # For ell = 8 this scan is a backstop: every K8 of the perturbed graph
    # has four vertices in one half, so a rainbow K8 holds a side rainbow
    # K4 without RED and the red-cover check above has already returned.
    pairs = ell * (ell - 1) // 2
    for vs in perturbed_cliques(instance, ell):
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
