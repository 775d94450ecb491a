"""Proper edge-colourings, rainbow detection, and an exact backtracking
decider for "every proper colouring contains a rainbow copy".

Colours are dense non-negative ints; equality is their only meaning.
Colourings may be partial; rainbow checks treat uncoloured edges as
wildcards that never clash.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from itertools import chain
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .graph import Graph, bits, enumerate_copies

__all__ = [
    "EdgeColouring",
    "ArrowsVerdict",
    "is_proper",
    "find_properness_clash",
    "rainbow_copies",
    "random_proper_colouring",
    "decide_arrows",
    "colouring_to_json",
]


# Colour ids must fit int64: a join's cross colours are an int64 buffer, and
# find_properness_clash sorts colours with numpy.
_MAX_COLOUR = 2**63 - 1

# A colouring with at most this many cells (side keys plus cross cells) is
# checked for clashes in one Python pass, which beats numpy's fixed costs:
# on proper colourings at every size measured (up to 394 edges of a plain
# graph, 655 cells of a join), on improper ones up to about 50 edges of a
# plain graph (21 us against numpy's 17 us at 60 edges) and 450 cells of a
# join (152 against 194 us at 423 cells, 264 against 218 us at 653).
_SCAN_LIMIT = 256


def _check_colour_range(lo: int, hi: int) -> None:
    if lo < 0:
        raise ParameterError(f"colour ids must be >= 0, got {lo}")
    if hi > _MAX_COLOUR:
        raise ParameterError(f"colour ids must be <= 2**63 - 1, got {hi}")


def _check_colour(colour) -> int:
    """`colour` as a plain int; ParameterError unless it is an integer in
    [0, 2**63 - 1].  Callers test `type(colour) is int` and the range
    inline first, so a plain int in range costs no call."""
    if not isinstance(colour, Integral):
        raise ParameterError(f"colour ids must be integers, got {colour!r}")
    _check_colour_range(colour, colour)
    return int(colour)


class _Frozen:
    """Write log of a frozen colouring: it refuses every write.  It keeps
    what `find_properness_clash` learns about the colouring on first need
    (`palette`: None until then, False when the colouring is not proper,
    else its sorted distinct colours) and its number of coloured cross
    cells (`cross_count`, None until `len` needs it), which every overlay
    without a cross write shares."""

    __slots__ = ("palette", "cross_count")

    def __init__(self):
        self.palette = None
        self.cross_count = None

    def add(self, *_) -> None:
        raise ParameterError("the colouring is frozen; write to a copy() of it")

    update = note_cross = add


class _Overlay(set):
    """Write log of a copy of the frozen colouring `base`: the set of side
    keys written to the copy, and whether any cross cell was written."""

    __slots__ = ("base", "cross_written")

    def __init__(self, base: "EdgeColouring", side_keys=(), cross_written=False):
        super().__init__(side_keys)
        self.base = base
        self.cross_written = cross_written

    def note_cross(self) -> None:
        self.cross_written = True


class EdgeColouring:
    """Partial edge colouring of a fixed graph.

    Two stores.  On a join (`graph.split` > 0) the cross edges (u, v),
    u < split <= v, are the cells of one row-major int64 buffer of split
    rows and n - split columns, -1 meaning uncoloured.  Every other edge,
    and every edge of a graph that is not a join, is a key of an
    edge -> colour dict.  A method picks an edge's store by comparing its
    endpoints with `split`, so a dense join costs 8 bytes per cross edge
    and no Python object.

    Costs, with s the side (dict) edges and B the cross cells: `get`,
    `assign` and `assign_fresh` are O(1) (`get` validates its pair only
    when the dict misses), `colours` O(1) per key (it reads a list of
    side keys at dict speed); `colours_at` is O(degree), a vertex's cross
    edges being one slice of the buffer; `assign_many` is O(its input)
    plus an O(s) disjointness check, `recolour_many` O(its input), both
    validating and filing each pair in one pass; `assign_cross_block`,
    `fill_fresh`, `is_total`, `len`, `colours_used`, `copy` and `domain`
    take O(s) plus one numpy pass over the buffer (`len` and `is_total`
    of an overlay with no cross write read the base's count of coloured
    cells instead, counted once).  `find_properness_clash` walks the
    incidences in Python when s + B is at most `_SCAN_LIMIT` (256), where
    numpy's fixed costs would dominate, and otherwise sorts the side
    incidences and the buffer's rows and columns.  Fresh colours are
    handed out monotonically.

    `freeze()` makes a colouring read-only: every write raises
    ParameterError.  A `copy()` of a frozen colouring is an *overlay*: an
    ordinary mutable colouring that also keeps its base and logs its writes
    (the side keys written, and whether any cross cell was), which
    `overlay()` reads.  Logging costs O(1) per side key written, and a
    colouring that is neither frozen nor an overlay pays one `is None` test
    per write.  On an overlay of a proper base, `find_properness_clash`
    costs O(w log k) for w written edges and k base colours (plus one
    numpy comparison of the cross buffer with the base's when a cross cell
    was written), after a full check of the base and its sorted palette,
    done once per base and kept on it (8 bytes per distinct colour).  An
    overlay that writes a colour of its base is checked in full.

    `assign_many`, `recolour_many`, `assign_cross_block` and `fill_fresh`
    colour many edges in one call; only `recolour_many` may overwrite a
    coloured edge.  The bulk contract: every input is validated before
    anything changes (a rejected call leaves the colouring as it was), and
    the result is the colouring that assigning the same pairs one at a time
    would give, with the same colour ids, overlay log and `next_colour`.
    """

    __slots__ = ("graph", "_col", "_cross", "_shape", "next_colour", "_log")

    def __init__(self, graph: Graph, colours=None):
        self.graph = graph
        self._log: _Frozen | _Overlay | None = None
        self._col: dict[tuple[int, int], int] = {}
        split, width = graph.split, graph.n - graph.split
        self._shape = (split, width)
        self._cross = array("q", [-1]) * (split * width)
        self.next_colour = 0
        if colours:
            items = colours.items() if isinstance(colours, dict) else colours
            for key, c in items:
                u, v = key
                self.assign(u, v, c)

    def _key(self, u: int, v: int) -> tuple[int, int]:
        if not self.graph.has_edge(u, v):
            raise ParameterError(f"({u},{v}) is not an edge of the companion graph")
        return (u, v) if u < v else (v, u)

    def _block(self) -> np.ndarray:
        """The cross buffer as a writable split x (n - split) array."""
        return np.frombuffer(self._cross, dtype=np.int64).reshape(self._shape)

    def cross_block(self) -> np.ndarray:
        """Read-only split x (n - split) view of the cross colours: entry
        [u, v - split] is the colour of (u, v), -1 if it is uncoloured.
        It has no rows unless the graph is a join, and it shows later
        assignments."""
        out = self._block()
        out.flags.writeable = False
        return out

    def assign(self, u: int, v: int, colour: int) -> None:
        if type(colour) is not int or not 0 <= colour <= _MAX_COLOUR:
            colour = _check_colour(colour)
        cross = self._cross
        a, b = (u, v) if u < v else (v, u)
        split, width = self._shape
        if cross and 0 <= a < split <= b < split + width:
            if self._log is not None:
                self._log.note_cross()
            cross[a * width + b - split] = colour
        else:
            key = self._key(u, v)
            if self._log is not None:
                self._log.add(key)
            self._col[key] = colour
        if colour >= self.next_colour:
            self.next_colour = colour + 1

    def assign_many(self, edges, colours) -> None:
        """Colour `edges[i]` with `colours[i]` for every i.

        Each edge is a (u, v) tuple with u < v, an edge of the graph, not
        yet coloured and listed once; each colour is an int in
        [0, 2**63 - 1].
        """
        self._write_many(edges, colours, overwrite=False)

    def recolour_many(self, edges, colours) -> None:
        """`assign_many` that may overwrite coloured edges: the colouring,
        overlay log and `next_colour` that assigning the pairs one at a
        time with `assign` would give."""
        self._write_many(edges, colours, overwrite=True)

    def _write_many(self, edges, colours, overwrite: bool) -> None:
        edges = list(edges)
        colours = list(colours)
        if len(edges) != len(colours):
            raise ParameterError(
                f"{len(edges)} edges but {len(colours)} colours")
        n, adj = self.graph.n, self.graph.adj
        split, width = self._shape
        # one pass validates each pair and files it as a side key or a
        # cross cell; `1 << v & adj[u]` allocates no shifted copy of adj[u]
        side, cells = {}, {}
        for e, c in zip(edges, colours):
            u, v = e
            if not (0 <= u < v < n and 1 << v & adj[u]):
                raise ParameterError(
                    f"({u},{v}) is not an edge (u < v) of the companion graph")
            if type(c) is not int or not 0 <= c <= _MAX_COLOUR:
                c = _check_colour(c)
            if u < split <= v:
                cells[u * width + v - split] = c
            else:
                side[e] = c
        if len(side) + len(cells) != len(edges):
            raise ParameterError("an edge is listed more than once")
        cross = self._cross
        if not overwrite and (not self._col.keys().isdisjoint(side)
                              or any(cross[i] >= 0 for i in cells)):
            e = next(e for e in edges if self.get(*e) is not None)
            raise ParameterError(f"{e} is already coloured")
        if self._log is not None:
            self._log.update(side)
            if cells:
                self._log.note_cross()
        self._col.update(side)
        for i, c in cells.items():
            cross[i] = c
        if colours:
            self.next_colour = max(self.next_colour, int(max(colours)) + 1)

    def assign_cross_block(self, colours) -> None:
        """Colour every cross edge (u, v) of a join with
        `colours[u, v - split]`: an integer array shaped like
        `cross_block()`, of colours in [0, 2**63 - 1].  No cross edge may
        be coloured yet."""
        colours = np.asarray(colours)
        block = self._block()
        if colours.shape != block.shape:
            raise ParameterError(
                f"colours of shape {colours.shape} for a cross block of shape {block.shape}")
        if colours.dtype.kind not in "iu":
            raise ParameterError(f"colours must be integers, got dtype {colours.dtype}")
        if not colours.size:
            return
        hi = int(colours.max())
        _check_colour_range(int(colours.min()), hi)
        coloured = np.flatnonzero(block.ravel() >= 0)
        if coloured.size:
            u, j = divmod(int(coloured[0]), self._shape[1])
            raise ParameterError(f"{(u, j + self._shape[0])} is already coloured")
        if self._log is not None:
            self._log.note_cross()
        block[...] = colours
        self.next_colour = max(self.next_colour, hi + 1)

    def fill_fresh(self, start: int | None = None) -> None:
        """Give every uncoloured edge its own fresh colour, consecutive from
        `start` (default: next_colour, the lowest fresh one) in graph edge
        order."""
        first = self.next_colour if start is None else start
        if first < self.next_colour:
            raise ParameterError(
                f"colour {first} may be in use; fresh colours start at {self.next_colour}")
        col = self._col
        todo = [e for e in self._side_edges() if e not in col]
        cells = ()
        if self._cross:
            flat = self._block().ravel()
            cells = np.flatnonzero(flat < 0)
        total = len(todo) + len(cells)
        if not total:
            return
        _check_colour_range(first, first + total - 1)
        if self._log is not None:
            self._log.update(todo)
            if len(cells):
                self._log.note_cross()
        if len(cells):
            # Rank every uncoloured edge by u * n + v, the graph's edge
            # order: both lists are sorted, so a rank is a position in one
            # list plus a count of smaller keys in the other.
            split, width = self._shape
            n = split + width
            rows, cols = np.divmod(cells, width)
            keys = rows * n + split + cols
            side_keys = np.array([u * n + v for u, v in todo], dtype=np.int64)
            flat[cells] = first + np.arange(len(cells)) + np.searchsorted(side_keys, keys)
            side_colours = (first + np.arange(len(todo))
                            + np.searchsorted(keys, side_keys)).tolist()
        else:
            side_colours = range(first, first + len(todo))
        col.update(zip(todo, side_colours))
        self.next_colour = max(self.next_colour, first + total)

    def _side_edges(self):
        """The graph's edges outside the cross block, in graph edge order."""
        g = self.graph
        if not g.split:
            return g.edges
        off = g.split
        return chain(g.left.edges, ((u + off, v + off) for u, v in g.right.edges))

    def get(self, u: int, v: int):
        """Colour of the edge uv, None when it is uncoloured; a pair that is
        not an edge raises ParameterError.  Only a dict miss validates the
        pair: every stored key is a graph edge."""
        if u < v:
            a, b = u, v
        else:
            a, b = v, u
        split, width = self._shape
        if 0 <= a < split <= b < split + width:  # a cross cell: the buffer is not empty
            c = self._cross[a * width + b - split]
            return None if c < 0 else c
        c = self._col.get((a, b))
        if c is None:
            self._key(u, v)
        return c

    def colours(self, edges) -> list[int]:
        """Colour of each (u, v) key, u < v, in order.  Keys are not
        validated one by one: an uncoloured edge or any other key raises
        ParameterError."""
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        col = self._col
        try:
            return [col[e] for e in edges]  # all side keys: one dict pass
        except KeyError:
            pass
        split, width = self._shape
        cross = self._cross
        out = []
        for e in edges:
            u, v = e
            c = (cross[u * width + v - split] if 0 <= u < split <= v < split + width
                 else col.get(e, -1))
            if c < 0:
                raise ParameterError(
                    f"{e} is not a coloured edge (u < v) of the companion graph")
            out.append(c)
        return out

    def assign_fresh(self, u: int, v: int) -> int:
        c = self.next_colour
        self.assign(u, v, c)
        return c

    def domain(self) -> list[tuple[int, int]]:
        side = sorted(self._col)
        if not self._cross:
            return side
        split, width = self._shape
        rows, cols = np.divmod(np.flatnonzero(self._block().ravel() >= 0), width)
        # two sorted runs: the sort merges them
        return sorted(side + list(zip(rows.tolist(), (cols + split).tolist())))

    def is_total(self) -> bool:
        return len(self) == self.graph.m

    def colours_used(self) -> set[int]:
        out = set(self._col.values())
        if self._cross:
            out.update(self._cross)
            out.discard(-1)
        return out

    def _cross_at(self, a: int):
        """The colours on a's cross edges, as a copied slice of the buffer
        (-1 for uncoloured), and a's side neighbours as a bitset."""
        split, width = self._shape
        nbrs = self.graph.adj[a]
        if a < split:
            cells = self._cross[a * width:(a + 1) * width]
            nbrs &= (1 << split) - 1
        else:
            cells = self._cross[a - split::width]
            nbrs = nbrs >> split << split
        return cells, nbrs

    def colours_at(self, v: int) -> set[int]:
        """Colours on the coloured edges at v.  O(degree)."""
        if self._cross:
            cells, nbrs = self._cross_at(v)
            out = set(cells)
            out.discard(-1)
        else:
            out, nbrs = set(), self.graph.adj[v]
        col = self._col
        for w in bits(nbrs):
            c = col.get((v, w) if v < w else (w, v))
            if c is not None:
                out.add(c)
        return out

    def copy(self) -> "EdgeColouring":
        """A mutable copy; an overlay when this colouring is frozen or is
        itself an overlay (then of the same base, with its log so far)."""
        out = EdgeColouring.__new__(EdgeColouring)
        out.graph = self.graph
        out._col = dict(self._col)
        out._cross = self._cross[:]
        out._shape = self._shape
        out.next_colour = self.next_colour
        log = self._log
        if log is None:
            out._log = None
        elif type(log) is _Frozen:
            out._log = _Overlay(self)
        else:
            out._log = _Overlay(log.base, log, log.cross_written)
        return out

    def freeze(self) -> "EdgeColouring":
        """Make this colouring read-only and return it: from now on every
        write raises ParameterError, and each `copy()` is an overlay."""
        if type(self._log) is not _Frozen:
            self._log = _Frozen()
        return self

    def overlay(self):
        """(base, written side keys, cross_written) when this colouring is
        a copy of the frozen colouring `base`, else None.  Every side edge
        outside the written keys has its colour in `base` (or is
        uncoloured in both), and so has every cross edge unless
        `cross_written`."""
        log = self._log
        if type(log) is not _Overlay:
            return None
        return log.base, frozenset(log), log.cross_written

    def __len__(self):
        if not self._cross:
            return len(self._col)
        log = self._log
        if type(log) is _Overlay and not log.cross_written:
            log = log.base._log  # the base's cross block, cell for cell
        if type(log) is not _Frozen:
            return len(self._col) + int(np.count_nonzero(self._block() >= 0))
        if log.cross_count is None:
            log.cross_count = int(np.count_nonzero(self._block() >= 0))
        return len(self._col) + log.cross_count

    def __repr__(self):
        return f"EdgeColouring({len(self)}/{self.graph.m} edges, {len(self.colours_used())} colours)"


@dataclass
class ArrowsVerdict:
    outcome: str  # "arrows" | "witness" | "unknown"
    witness: EdgeColouring | None
    nodes: int

    @property
    def arrows(self) -> bool:
        return self.outcome == "arrows"


def is_proper(g: Graph, psi: EdgeColouring) -> bool:
    return find_properness_clash(g, psi) is None


def find_properness_clash(g: Graph, psi: EdgeColouring):
    """Lowest properness violation as (vertex, colour, offending edges).

    Returns None when psi is proper; otherwise `vertex` is the lowest
    vertex where two edges share a colour, `colour` the lowest such colour
    there, and the offending edges are the >= 2 edges at `vertex` with it.

    Two strategies, by size.  A colouring of at most `_SCAN_LIMIT` cells
    (side keys plus cross cells) lists its (vertex, colour) incidences in
    one Python pass and takes the lowest repeat: below the limit numpy's
    fixed cost per call dominates, ten times the scan on a small join.
    A larger one is checked with numpy.  There a clash lies among the side
    (dict) edges, inside one row or column of the cross block, or between
    a side edge and its endpoint's row or column; each kind yields its
    lowest (vertex, colour), and the lowest of those is the answer.

    On an overlay (a copy of a frozen colouring) the base is checked in
    full once and, when proper, its palette (sorted distinct colours) is
    kept on it.  Let W be the written edges: the written side keys and,
    when a cross cell was written, the cross cells whose colour differs
    from the base's.  If a colour of W is in the palette, the overlay is
    checked in full.  Otherwise every clash lies between two edges of W,
    whose lowest repeated incidence is the answer.  This is sound: every
    edge outside W has its base colour, so two of them never clash (the
    base is proper), and none of them has a colour of W.  An overlay is
    checked this way at any size.
    """
    if psi.graph is not g and psi.graph != g:
        raise ParameterError("colouring belongs to a different graph")
    log = psi._log
    palette = _proper_palette(log.base) if type(log) is _Overlay else None
    found = _lowest_clash_any(psi) if palette is None else _lowest_clash_written(psi, palette)
    if found is None:
        return None
    v, c = found
    edges = tuple(
        (min(v, u), max(v, u))
        for u in g.neighbours(v)
        if psi.get(v, u) == c
    )
    return v, c, edges


def _lowest_clash_any(psi: EdgeColouring):
    """Lowest (vertex, colour) clash of psi, or None, from all its edges:
    by `_lowest_clash_scan` up to `_SCAN_LIMIT` cells, else with numpy."""
    if len(psi._col) + len(psi._cross) <= _SCAN_LIMIT:
        return _lowest_clash_scan(psi)
    return _lowest_clash_all(psi)


def _lowest_clash_scan(psi: EdgeColouring):
    """`_lowest_clash_all` by one Python pass over the (vertex, colour)
    incidences; the lowest repeat is searched only when there is one."""
    inc = []
    add = inc.append
    for (u, v), c in psi._col.items():
        add((u, c))
        add((v, c))
    split, width = psi._shape
    cross = psi._cross
    for u in range(split):
        for v, c in zip(range(split, split + width), cross[u * width:(u + 1) * width]):
            if c >= 0:
                add((u, c))
                add((v, c))
    if len(set(inc)) == len(inc):
        return None
    seen = set()
    return min(k for k in inc if k in seen or seen.add(k))  # the repeats


def _lowest_clash_all(psi: EdgeColouring):
    """Lowest (vertex, colour) clash of psi, or None, from all its edges,
    sorted with numpy."""
    col = psi._col
    m = len(col)
    ends, cols, repeat = _sorted_incidences(
        np.fromiter(chain.from_iterable(col), dtype=np.int64, count=2 * m),
        np.fromiter(col.values(), dtype=np.int64, count=m))
    found = [repeat] if repeat else []
    if psi._cross:
        split = psi._shape[0]
        block = psi._block()
        left = ends < split
        # rows are the left vertices, columns (rows of the transpose) the
        # right ones; one sorted copy at a time bounds the memory
        for matrix, shift, mine in ((block, 0, left), (block.T, split, ~left)):
            ranked = np.sort(matrix, axis=1)
            found += _lowest_clash(ranked, shift, ends[mine], cols[mine])
            del ranked
    return min(found) if found else None


def _sorted_incidences(ends: np.ndarray, cols: np.ndarray):
    """The (endpoint, colour) incidences of the edges with endpoints
    ends[2i], ends[2i + 1] and colour cols[i], as an endpoint and a colour
    array sorted by endpoint then colour, and the lowest incidence that
    occurs twice (a clash among these edges), or None."""
    cols = cols.repeat(2)
    order = np.lexsort((cols, ends))
    ends, cols = ends[order], cols[order]
    same = (ends[1:] == ends[:-1]) & (cols[1:] == cols[:-1])
    if not same.any():
        return ends, cols, None
    i = int(same.argmax())
    return ends, cols, (int(ends[i]), int(cols[i]))


def _proper_palette(base: EdgeColouring):
    """The sorted distinct colours of the frozen colouring `base`, or None
    when `base` is not proper.  Found on first need and kept on `base`."""
    frozen = base._log
    if frozen.palette is None:
        if _lowest_clash_any(base) is None:
            cross = np.frombuffer(base._cross, dtype=np.int64)
            side = np.fromiter(base._col.values(), dtype=np.int64, count=len(base._col))
            palette = np.sort(np.concatenate((side, cross[cross >= 0])))
            # deduplicated by hand: np.unique imports numpy.ma (1 MB)
            distinct = np.ones(len(palette), dtype=bool)
            distinct[1:] = palette[1:] != palette[:-1]
            frozen.palette = palette[distinct]
        else:
            frozen.palette = False
    return None if frozen.palette is False else frozen.palette


def _lowest_clash_written(psi: EdgeColouring, palette: np.ndarray):
    """Lowest (vertex, colour) clash of an overlay of a proper base with
    sorted colours `palette`, or None: from the written edges alone when
    none of their colours is in `palette`, else from all edges (see
    find_properness_clash)."""
    log = psi._log
    side = list(log)
    ends = np.fromiter(chain.from_iterable(side), dtype=np.int64, count=2 * len(side))
    cols = np.fromiter(map(psi._col.__getitem__, side), dtype=np.int64, count=len(side))
    if log.cross_written:
        now = np.frombuffer(psi._cross, dtype=np.int64)
        cells = np.flatnonzero(now != np.frombuffer(log.base._cross, dtype=np.int64))
        split, width = psi._shape
        rows, right = np.divmod(cells, width)
        ends = np.concatenate((ends, np.column_stack((rows, right + split)).ravel()))
        cols = np.concatenate((cols, now[cells]))
    if palette.size:
        at = np.searchsorted(palette, cols).clip(max=palette.size - 1)
        if (palette[at] == cols).any():
            return _lowest_clash_any(psi)
    return _sorted_incidences(ends, cols)[2]


def _lowest_clash(ranked: np.ndarray, shift: int, ends: np.ndarray, cols: np.ndarray):
    """Lowest (vertex, colour) clashes of the cross block, as a list of at
    most two: `ranked` holds the block's cross colours of vertex shift + r
    in sorted row r (-1 = uncoloured).  One is a repeat inside a row, the
    other a side incidence (ends[i], cols[i]), sorted by vertex then colour,
    whose colour also occurs in its vertex's row."""
    out = []
    repeat = (ranked[:, 1:] == ranked[:, :-1]) & (ranked[:, 1:] >= 0)
    rows = np.flatnonzero(repeat.any(axis=1))
    if rows.size:
        r = int(rows[0])
        out.append((r + shift, int(ranked[r, 1:][repeat[r]][0])))
    if ends.size:
        hit = _occurs_in_sorted_rows(ranked, ends - shift, cols)
        if hit.any():
            i = int(hit.argmax())
            out.append((int(ends[i]), int(cols[i])))
    return out


def _occurs_in_sorted_rows(ranked: np.ndarray, rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """hit[i]: does vals[i] occur in row rows[i] of `ranked`, whose rows
    are sorted?  One vectorised binary search, O(len(rows) log width)."""
    width = ranked.shape[1]
    lo = np.zeros(len(rows), dtype=np.int64)
    hi = np.full(len(rows), width, dtype=np.int64)
    while (live := lo < hi).any():
        mid = (lo + hi) >> 1
        below = ranked[rows, np.minimum(mid, width - 1)] < vals
        lo = np.where(live & below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)
    return (lo < width) & (ranked[rows, np.minimum(lo, width - 1)] == vals)


def rainbow_copies(g: Graph, psi: EdgeColouring, h: Graph) -> list[tuple[int, ...]]:
    """Embeddings of h in g whose coloured image edges have pairwise
    distinct colours. Uncoloured edges are wildcards."""
    out = []
    for emb in enumerate_copies(g, h):
        cols = []
        for u, v in h.edges:
            c = psi.get(emb[u], emb[v])
            if c is not None:
                cols.append(c)
        if len(cols) == len(set(cols)):
            out.append(emb)
    return out


def random_proper_colouring(g: Graph, rng, fresh_bias: float) -> EdgeColouring:
    """Random proper colouring: random edge order; each edge goes fresh
    with probability fresh_bias, else takes a uniform non-conflicting
    already-used colour (fresh when none is available).

    The colours are decided on per-vertex bitmasks and written in one
    `assign_many`; the rng sees the calls an edge-by-edge loop of
    `colours_at` and `assign`/`assign_fresh` made (`shuffle` of the edge
    list, then per edge `random` and, for a reuse with a legal colour,
    `randrange(len(legal))`), so a seed gives the colouring it always gave.
    """
    if not (0.0 <= fresh_bias <= 1.0):
        raise ParameterError(f"fresh_bias must be a probability, got {fresh_bias}")
    order = list(g.edges)
    rng.shuffle(order)
    used = [0] * g.n  # used[x]: bitmask of the colours at vertex x
    fresh = 0
    colours = []
    for u, v in order:
        c = fresh
        if fresh_bias < 1.0 and rng.random() >= fresh_bias:
            blocked = used[u] | used[v]
            legal = [x for x in range(fresh) if not blocked >> x & 1]
            if legal:
                c = legal[rng.randrange(len(legal))]
        if c == fresh:
            fresh += 1
        used[u] |= 1 << c
        used[v] |= 1 << c
        colours.append(c)
    psi = EdgeColouring(g)
    psi.assign_many(order, colours)
    return psi


def decide_arrows(g: Graph, h: Graph, node_budget: int = 2_000_000) -> ArrowsVerdict:
    """Does every proper edge-colouring of g contain a rainbow copy of h?

    Exhaustive backtracking over colour assignments.  Completeness rests on
    colour-permutation invariance: a fresh colour is only ever introduced
    as (max used + 1), which enumerates proper colourings up to renaming,
    and the rainbow-free property is renaming-invariant.

    A colouring is pruned when a copy of h through the edge just coloured
    is rainbow, or has one uncoloured edge at which no colour of the copy
    is still legal.  Each edge keeps, for every copy through it, the tuple
    of the copy's other edge ids, and the test walks that tuple with the
    copy's colours so far as a bitmask, so it builds nothing per node.
    ``nodes`` counts every colour tried, legal or not; the budget stops
    the search at the first count above it.
    """
    if node_budget <= 0:
        raise ParameterError(f"node budget must be positive, got {node_budget}")
    if h.m == 0 and h.n <= g.n:  # every copy of an edgeless h is rainbow
        return ArrowsVerdict("arrows", None, 0)
    m = g.m
    copy_sets = sorted({
        frozenset(g.edge_id(emb[u], emb[v]) for u, v in h.edges)
        for emb in enumerate_copies(g, h)
    }, key=sorted)
    copies = [tuple(sorted(cs)) for cs in copy_sets]
    # others[e]: for each copy through e, in copy order, its other edge ids
    others: list[list[tuple[int, ...]]] = [[] for _ in range(m)]
    for es in copies:
        for e in es:
            others[e].append(tuple(f for f in es if f != e))
    order = sorted(range(m), key=lambda e: (-len(others[e]), e))
    ends = g.edges
    col = [-1] * m
    # used[x]: bitmask of the colours on the coloured edges at vertex x, so
    # colour c is legal at an uncoloured edge (u, v) iff bit c of
    # used[u] | used[v] is clear
    used = [0] * g.n
    nodes = 0

    def copy_blocks(e: int) -> bool:
        """After colouring e: does some copy become rainbow, or rainbow-forced?

        Each copy is walked once over its other edges, with its colours so
        far as a bitmask; the walk stops at a repeated colour (never
        rainbow) or at a second uncoloured edge (not yet forced)."""
        start = 1 << col[e]
        for rest in others[e]:
            seen = start
            last = -1
            for f in rest:
                c = col[f]
                if c < 0:
                    if last >= 0:
                        break
                    last = f
                elif seen >> c & 1:
                    break
                else:
                    seen |= 1 << c
            else:
                if last < 0:
                    return True  # fully coloured and rainbow
                # the uncoloured edge must repeat a copy colour; conflicts
                # only grow, so if no copy colour is currently legal there
                # the copy is doomed
                u, v = ends[last]
                if not seen & ~(used[u] | used[v]):
                    return True
        return False

    def search():
        """Depth-first over the positions of `order`, on explicit stacks so
        that a graph of any size stays within the recursion limit.  The
        edge at pos tries colours next_try[pos] .. max_used[pos] + 1 (below
        m), max_used[pos] being the largest colour on the earlier edges.
        True when every edge is coloured, None when the budget runs out,
        else False."""
        nonlocal nodes
        next_try = [0] * (m + 1)
        max_used = [-1] * (m + 1)
        pos = 0
        while 0 <= pos < m:
            e = order[pos]
            u, v = ends[e]
            if col[e] >= 0:  # back from a dead end below: uncolour e
                used[u] ^= 1 << col[e]
                used[v] ^= 1 << col[e]
                col[e] = -1
            # each tried colour is undone before the next, so the colours
            # blocked at e stay fixed through the loop
            blocked = used[u] | used[v]
            for c in range(next_try[pos], min(max_used[pos] + 2, m)):
                nodes += 1
                if nodes > node_budget:
                    return None
                if blocked >> c & 1:
                    continue
                col[e] = c
                used[u] |= 1 << c
                used[v] |= 1 << c
                if not copy_blocks(e):
                    next_try[pos] = c + 1
                    pos += 1
                    next_try[pos] = 0
                    max_used[pos] = max(max_used[pos - 1], c)
                    break
                used[u] ^= 1 << c
                used[v] ^= 1 << c
                col[e] = -1
            else:
                pos -= 1
        return pos == m

    result = search()
    if result is None:
        return ArrowsVerdict("unknown", None, nodes)
    if result is False:
        return ArrowsVerdict("arrows", None, nodes)
    witness = EdgeColouring(g)
    for e in range(m):
        u, v = g.edges[e]
        witness.assign(u, v, col[e])
    return ArrowsVerdict("witness", witness, nodes)


# -- serialization ---------------------------------------------------------


def colouring_to_json(psi: EdgeColouring) -> str:
    return json.dumps({"edges": [[u, v, psi.get(u, v)] for u, v in psi.domain()]})

