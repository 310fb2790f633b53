"""Coined quantum walk on arbitrary undirected graphs.

Amplitudes live on arcs (ordered vertex pairs along edges). The coin is the
per-vertex Grover diffusion of local degree, the shift swaps each arc with
its reverse, and marked vertices get the scheme's effective coin exactly as
on the grid. Includes the witness constructions for stationary states over
two, three, and ring-of-r marked vertices.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .grid import CoinScheme, OracleTooLargeError
from .stationary import Decomposition

__all__ = [
    "DEFAULT_GRAPH_ORACLE_CAP",
    "GenericThreeSpec",
    "Graph",
    "GraphState",
    "InvalidGraphError",
    "build_generic_three",
    "build_symmetric_ring",
    "build_two_marked",
    "decompose_graph_initial",
    "graph_check_conditions",
    "graph_dense_step_matrix",
    "graph_marked_probability",
    "graph_overlap",
    "graph_step",
    "graph_uniform_state",
    "parse_edge_list",
    "parse_vertex_ids",
    "torus_graph",
]

DEFAULT_GRAPH_ORACLE_CAP = 400


class InvalidGraphError(ValueError):
    """Graph unsuitable for the walk (isolated vertex, self-loop, ...)."""


class Graph:
    """Simple undirected graph with a fixed arc ordering.

    Arc k runs from ``tail[k]`` to ``head[k]``; arcs are sorted by
    (tail, head), so vertex v's arcs fill ``offsets[v]:offsets[v + 1]`` in
    ascending neighbor order. The ``partner`` array maps each arc to its
    reverse, which is what the shift permutes. Build one with
    :meth:`from_edges`.
    """

    def __init__(self, n: int, tail: np.ndarray, head: np.ndarray):
        if n == 0:
            raise InvalidGraphError("graph has no vertices")
        self.n, self.tail, self.head = n, tail, head
        self.degrees = np.bincount(tail, minlength=n)
        isolated = np.flatnonzero(self.degrees == 0)
        if isolated.size:
            raise InvalidGraphError(
                f"vertex {int(isolated[0])} is isolated; the coin is undefined there"
            )
        self.offsets = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(self.degrees, out=self.offsets[1:])
        # arc keys tail * n + head ascend strictly, so arc_index is one search away
        self._keys = tail * n + head
        # the reverse keys head * n + tail are the arc keys permuted, so the arc
        # holding the k-th smallest reverse key is the reverse of arc k
        self.partner = np.argsort(head * n + tail)

    @functools.cached_property
    def arcs(self) -> list[tuple[int, int]]:
        """The arcs as (tail, head) pairs, in arc order."""
        return list(zip(self.tail.tolist(), self.head.tolist()))

    @property
    def arc_count(self) -> int:
        """Total number of arcs; equals deg(G) = 2|E|."""
        return self.tail.size

    @classmethod
    def from_edges(cls, n: int, edges: "Iterable[tuple[int, int]] | np.ndarray") -> "Graph":
        """Graph on vertices 0..n-1; the first bad edge in input order is reported.

        ``edges`` is an iterable of pairs or an ``(m, 2)`` integer array.
        """
        if not isinstance(edges, np.ndarray):
            edges = [(u, v) for u, v in edges]
        try:
            e = np.asarray(edges, dtype=np.intp).reshape(-1, 2)
        except OverflowError:
            raise InvalidGraphError("vertex id too large for an index array") from None
        u, v = e[:, 0], e[:, 1]
        out_of_range = (u < 0) | (u >= n) | (v < 0) | (v >= n)
        lo, hi, span = np.minimum(u, v), np.maximum(u, v), n
        isolated = n > 2 * len(e)  # more vertices than endpoints
        if isolated:
            # rank the endpoints, so the keys stay small and nothing of length n is made
            ids, ranks = np.unique(np.concatenate([lo, hi]), return_inverse=True)
            lo, hi, span = ranks[: len(e)], ranks[len(e) :], ids.size
        keys = lo * span + hi
        repeated = np.ones(keys.size, dtype=bool)
        repeated[np.unique(keys, return_index=True)[1]] = False
        bad = np.flatnonzero(out_of_range | (u == v) | repeated)
        if bad.size:
            k = bad[0]
            bu, bv = int(u[k]), int(v[k])
            if out_of_range[k]:
                raise InvalidGraphError(f"edge ({bu}, {bv}) out of range for n={n}")
            if bu == bv:
                raise InvalidGraphError(f"self-loop at vertex {bu}")
            raise InvalidGraphError(f"parallel edge ({bu}, {bv})")
        if isolated:
            # the sorted ids match 0, 1, ... up to the smallest unused one
            mex = np.count_nonzero(ids == np.arange(ids.size))
            raise InvalidGraphError(f"vertex {mex} is isolated; the coin is undefined there")
        arc_keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        tail, head = np.divmod(arc_keys, n)
        return cls(n, tail, head)

    def arc_index(self, i: int, j: int) -> int:
        """Position of arc (i, j); KeyError when i and j are not adjacent."""
        key = i * self.n + j
        k = int(np.searchsorted(self._keys, key))
        if 0 <= i < self.n and 0 <= j < self.n and k < self.arc_count and self._keys[k] == key:
            return k
        raise KeyError((i, j))

    def arc_slice(self, v: int) -> slice:
        return slice(int(self.offsets[v]), int(self.offsets[v + 1]))

    def check_marked(self, marked: Iterable[int]) -> tuple[int, ...]:
        out = tuple(sorted(set(int(v) for v in marked)))
        for v in out:
            if not 0 <= v < self.n:
                raise ValueError(f"marked vertex {v} out of range for n={self.n}")
        return out

    def marked_arc_indices(self, marked: Iterable[int]) -> np.ndarray:
        """Indices of all arcs whose tail vertex is marked."""
        vs = np.array(self.check_marked(marked), dtype=np.intp)
        counts = self.degrees[vs]
        # a running counter, shifted per run so vertex v's run starts at offsets[v]
        run_start = np.repeat(self.offsets[vs] - (np.cumsum(counts) - counts), counts)
        return run_start + np.arange(run_start.size, dtype=np.intp)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.arc_count // 2})"


@dataclass
class GraphState:
    """Real amplitude per arc, in the graph's arc ordering."""

    graph: Graph
    amp: np.ndarray

    def copy(self) -> "GraphState":
        return GraphState(self.graph, self.amp.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.dot(self.amp, self.amp)))


# ids of at most 18 digits fit in int64; anything else takes the line loop
_PLAIN_EDGES = re.compile(r"(?:[0-9]{1,18} [0-9]{1,18}\n)*[0-9]{1,18} [0-9]{1,18}\n?")


def parse_edge_list(text: str) -> Graph:
    """Graph from plain text: one ``u v`` pair per line, 0-based ids, ``#`` comments.

    Text of nothing but ``u v`` lines is converted in one array call (see
    :func:`_plain_edge_array`); any other text goes through
    :func:`_parse_edge_lines`, which names the first bad line.
    """
    edges = _plain_edge_array(text)
    if edges is not None:
        return Graph.from_edges(int(edges.max()) + 1, edges)
    return Graph.from_edges(*_parse_edge_lines(text))


def _plain_edge_array(text: str) -> np.ndarray | None:
    r"""The ``(m, 2)`` edges of text made only of ``u v`` lines, else None.

    A line is two ASCII-digit ids of at most 18 digits and one space, ended
    by ``\n`` (optional on the last line). Every such text is one the line
    loop accepts with the same edges; blank lines, comments, ``\r``, signs,
    underscores, non-ASCII digits and longer ids all return None.
    """
    if _PLAIN_EDGES.fullmatch(text) is None:
        return None
    return np.fromstring(text, dtype=np.int64, sep=" ").reshape(-1, 2)


def _parse_edge_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of an edge list, read line by line."""
    edges: list[tuple[int, int]] = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidGraphError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InvalidGraphError(f"line {lineno}: non-integer vertex id in {raw!r}")
        if u < 0 or v < 0:
            raise InvalidGraphError(f"line {lineno}: negative vertex id in {raw!r}")
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise InvalidGraphError("edge list is empty")
    return top + 1, edges


def parse_vertex_ids(text: str) -> list[int]:
    """Vertex ids, one per line; ``#`` comments and blank lines ignored."""
    ids: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            ids.append(int(line))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id {raw!r}")
    return ids


def torus_graph(n: int) -> Graph:
    """The n x n torus as a Graph; vertex (x, y) gets id x * n + y."""
    if n < 3:
        raise InvalidGraphError("torus graph needs n >= 3 to stay simple")
    edges = []
    for x in range(n):
        for y in range(n):
            edges.append((x * n + y, ((x + 1) % n) * n + y))
            edges.append((x * n + y, x * n + (y + 1) % n))
    return Graph.from_edges(n * n, edges)


def graph_uniform_state(g: Graph) -> GraphState:
    """Equal superposition over all arcs, amplitude 1/sqrt(deg(G)).

    deg(G) is the number of arcs, so the state is unit-norm; on the torus
    expressed as a graph this is exactly the grid walk's 1/sqrt(4N).
    """
    a = 1.0 / math.sqrt(g.arc_count)
    return GraphState(g, np.full(g.arc_count, a, dtype=float))


def graph_step(
    state: GraphState, marked: Iterable[int], scheme: CoinScheme
) -> GraphState:
    """One walk step: fused query+coin per vertex, then the arc swap.

    Unmarked vertices get degree-d Grover diffusion (alpha -> 2 s / d - alpha);
    marked vertices get -I under AKR and -D under GROVER, the query's sign
    already folded in, exactly as on the grid.
    """
    g = state.graph

    def spread(mean2: np.ndarray, amp: np.ndarray, out: np.ndarray) -> None:
        np.subtract(np.repeat(mean2, g.degrees), amp, out=out)

    coin, _ = _arc_steps(
        g.head, g.tail, g.partner, g.degrees, g.marked_arc_indices(marked), scheme, spread
    )
    c = np.empty_like(state.amp)
    coin(state.amp, np.add.reduceat(state.amp, g.offsets[:-1]), c)
    return GraphState(g, c[g.partner])


# the step kernels of _arc_steps and the spread they call; each writes one of its three arrays
_ArcKernel = Callable[[np.ndarray, np.ndarray, np.ndarray], None]


def _arc_steps(
    head: np.ndarray, tail: np.ndarray, partner: np.ndarray, degrees: np.ndarray,
    idxs: np.ndarray, scheme: CoinScheme, spread: _ArcKernel,
) -> tuple[_ArcKernel, _ArcKernel]:
    """The two forms of :func:`graph_step` on one arc layout with marked arcs ``idxs``.

    Both are called as ``f(amp, s, c)`` with ``s`` the vertex sums of ``amp``.
    ``coin`` writes the coin output into ``c``: arc k gets 2 s / d at its
    tail minus amp[k], written by ``spread(mean2, amp, c)``, and then the
    marked arcs are fixed up. The shift moves c[k] onto ``partner[k]``, so
    the step of ``amp`` is ``c[partner]``. ``recoin`` overwrites ``amp``
    with its step when ``c`` already holds ``amp[partner]``: the output is
    2 s / d at each arc's head minus ``c``, with the fix-ups at
    ``partner[idxs]``. ``partner`` is an involution, so after
    ``amp = c[partner]`` the ``c`` a coin wrote is that ``amp[partner]``, bit for bit.
    The sums must have the bits of ``reduceat``: ``bincount`` adds in another
    order, which moves the exact zero residual of the stationary witnesses to
    about 6e-17.
    """
    fix_arcs, fix_vertices, mean2 = partner[idxs], tail[idxs], np.empty(degrees.size)

    def marked_coin(s: np.ndarray, kept: np.ndarray) -> np.ndarray:
        # fills mean2 = 2 s / d, then gives the marked arcs' coin output
        np.multiply(s, 2.0, out=mean2)
        np.divide(mean2, degrees, out=mean2)
        return -kept if scheme is CoinScheme.AKR else kept - mean2[fix_vertices]

    def coin(amp: np.ndarray, s: np.ndarray, c: np.ndarray) -> None:
        fixed = marked_coin(s, amp[idxs])
        spread(mean2, amp, c)
        c[idxs] = fixed

    def recoin(amp: np.ndarray, s: np.ndarray, c: np.ndarray) -> None:
        fixed = marked_coin(s, amp[idxs])
        # mode="clip" never clips here; with out=, the default mode buffers the output
        np.take(mean2, head, out=amp, mode="clip")
        np.subtract(amp, c, out=amp)
        amp[fix_arcs] = fixed

    return coin, recoin


# numpy's pairwise sum of d terms is c0 + p(c1 .. c_{d-1}). p adds fewer than 8
# terms one by one, and 8 to 15 terms as one block of 8 accumulators,
# ((c1 + c2) + (c3 + c4)) + ((c5 + c6) + (c7 + c8)), then the rest one by one.
# From 16 terms on p loops over the block, so 16 is the highest degree whose sum
# is a fixed sequence of adds with no loop to replay; each add is one row op
_JAGGED_DEGREE = 16

# the vertex sums and coin spread of a bound layout; sums() writes s, spread is an _ArcKernel
_JaggedKernels = tuple[Callable[[], None], _ArcKernel]


def _jagged_arcs(
    g: Graph,
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray, np.ndarray, np.ndarray], _JaggedKernels]]:
    """The arc layout :func:`runner.run_graph_walk` runs in, with its vertex sums and coin.

    The vertices of degree <= ``_JAGGED_DEGREE`` come first, highest degree
    first and ties by id, then the others by id. The arcs of the first ones
    are stored jagged: row j holds the j-th arc of every vertex of degree
    above j, and those vertices are a prefix of the vertex order, so row j
    lines up with the first ``len(row j)`` vertices. The arcs of the others
    follow row-major, each vertex's arcs together and in order. Returns
    ``order`` (vertex ``i`` of the layout is vertex ``order[i]`` of ``g``),
    ``arcs`` (arc ``p`` of the layout is arc ``arcs[p]`` of ``g``) and
    ``bind(amp, s, c)``. That binds every view of a layout state ``amp``, its
    vertex sums ``s`` and a coin output ``c`` once, and returns ``sums()``,
    which writes the vertex sums of ``amp`` into ``s``, and
    ``spread(mean2, amp, c)``, which writes each arc's tail value of
    ``mean2`` minus ``amp`` into ``c`` (the unmarked coin of
    :func:`_arc_steps`); it works on the bound views, so it must be called
    with the ``amp`` and ``c`` it was bound to. The rows are summed with one
    add per row prefix in numpy's pairwise order (see ``_JAGGED_DEGREE``)
    and the row-major tail with ``reduceat``, so every sum has the bits of
    ``np.add.reduceat(amp, g.offsets[:-1])``. That relies on numpy's internal
    add order; ``TestDegreeBuckets.test_sums_match_reduceat_bit_for_bit`` in
    ``tests/test_graph.py`` fails if a numpy release changes it.
    """
    jagged = g.degrees <= _JAGGED_DEGREE
    order = np.argsort(np.where(jagged, -g.degrees, 1), kind="stable")
    degrees = g.degrees[order]
    m = int(np.count_nonzero(jagged))
    counts = [int(np.count_nonzero(degrees[:m] > j)) for j in range(_JAGGED_DEGREE)]
    tail_offsets = np.zeros(g.n - m, dtype=np.intp)
    np.cumsum(degrees[m:-1], out=tail_offsets[1:])
    # the running arc counter of the tail, shifted per vertex onto its arcs in g
    tail_arcs = np.repeat(g.offsets[order[m:]] - tail_offsets, degrees[m:])
    tail_arcs += np.arange(tail_arcs.size)
    arcs = np.concatenate([g.offsets[order[:k]] + j for j, k in enumerate(counts)] + [tail_arcs])
    bounds = np.cumsum([0] + counts)
    # per tail arc, its vertex in the layout
    tail_vertex = np.repeat(np.arange(m, g.n), degrees[m:])
    blocked, plain = counts[8], counts[1]  # vertices of degree > 8 and of degree > 1

    def bind(amp: np.ndarray, s: np.ndarray, c: np.ndarray) -> _JaggedKernels:
        rows = [amp[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        filled = [(k, row, c[lo:hi]) for k, row, lo, hi in zip(counts, rows, bounds, bounds[1:]) if k]
        x, y = np.empty(blocked), np.empty(blocked)
        b = s[:blocked]
        calls: list[tuple[Callable[..., object], tuple[np.ndarray, ...]]] = []
        if blocked:
            # p(c1 .. c_{d-1}) of the vertices of degree 9..16: the block of 8, then the rest
            calls += [
                (np.add, (rows[1][:blocked], rows[2][:blocked], b)),
                (np.add, (rows[3][:blocked], rows[4][:blocked], x)),
                (np.add, (b, x, b)),
                (np.add, (rows[5][:blocked], rows[6][:blocked], x)),
                (np.add, (rows[7][:blocked], rows[8][:blocked], y)),
                (np.add, (x, y, x)),
                (np.add, (b, x, b)),
            ]
            calls += [(np.add, (s[:k], rows[j], s[:k])) for j, k in enumerate(counts) if j > 8 and k]
        if plain > blocked:
            # p(c1 .. c_{d-1}) of the vertices of degree 2..8, one term at a time
            calls.append((np.copyto, (s[blocked:plain], rows[1][blocked:])))
            calls += [
                (np.add, (s[blocked:k], rows[j][blocked:], s[blocked:k]))
                for j, k in enumerate(counts[:8]) if j > 1 and k > blocked
            ]
        calls.append((np.add, (s[:plain], rows[0][:plain], s[:plain])))
        calls.append((np.copyto, (s[plain:m], rows[0][plain:])))
        if m < g.n:
            calls.append((np.add.reduceat, (amp[bounds[-1]:], tail_offsets, 0, None, s[m:])))
        amp_tail, c_tail = amp[bounds[-1]:], c[bounds[-1]:]

        def sums() -> None:
            for f, args in calls:
                f(*args)

        def spread(mean2: np.ndarray, _amp: np.ndarray, _c: np.ndarray) -> None:
            for k, row, c_row in filled:
                np.subtract(mean2[:k], row, out=c_row)
            # mode="clip" never clips here; with out=, the default mode buffers the output
            np.take(mean2, tail_vertex, out=c_tail, mode="clip")
            np.subtract(c_tail, amp_tail, out=c_tail)

        return sums, spread

    return order, arcs, bind


def graph_dense_step_matrix(
    g: Graph,
    marked: Iterable[int],
    scheme: CoinScheme,
    cap: int = DEFAULT_GRAPH_ORACLE_CAP,
) -> np.ndarray:
    """Explicit S C Q over the arc basis, for cross-checking ``graph_step``."""
    if g.arc_count > cap:
        raise OracleTooLargeError(f"oracle for {g.arc_count} arcs exceeds cap {cap}")
    vs = set(g.check_marked(marked))
    dim = g.arc_count

    q = np.eye(dim)
    for v in vs:
        sl = g.arc_slice(v)
        q[sl, sl] = -np.eye(sl.stop - sl.start)

    c = np.zeros((dim, dim))
    for v in range(g.n):
        d = int(g.degrees[v])
        sl = g.arc_slice(v)
        if v in vs and scheme is CoinScheme.AKR:
            block = np.eye(d)
        else:
            block = (2.0 / d) * np.ones((d, d)) - np.eye(d)
        c[sl, sl] = block

    s = np.zeros((dim, dim))
    for k in range(dim):
        s[g.partner[k], k] = 1.0

    return s @ c @ q


def graph_marked_probability(state: GraphState, marked: Iterable[int]) -> float:
    """Probability of measuring the location register on a marked vertex."""
    return _arc_probability(state.amp, state.graph.marked_arc_indices(marked))


def _arc_probability(amp: np.ndarray, idxs: np.ndarray) -> float:
    """Squared norm of the amplitudes on arcs ``idxs``."""
    sel = amp[idxs]
    return float(np.dot(sel, sel))


def graph_overlap(a: GraphState, b: GraphState) -> float:
    """Real inner product of two states on the same graph."""
    ga, gb = a.graph, b.graph
    if ga is not gb and not (np.array_equal(ga.tail, gb.tail) and np.array_equal(ga.head, gb.head)):
        raise ValueError("states live on different graphs")
    return float(np.dot(a.amp, b.amp))


def graph_check_conditions(
    state: GraphState, marked: Iterable[int], tol: float = 1e-12
) -> tuple[bool, bool, bool]:
    """The three stationarity conditions on a graph state.

    1. all arcs leaving unmarked vertices carry the same amplitude,
    2. each marked vertex's arc amplitudes sum to zero,
    3. each arc equals its reverse arc.
    """
    g = state.graph
    vs = g.check_marked(marked)
    marked_arcs = g.marked_arc_indices(vs)
    unmarked_mask = np.ones(g.arc_count, dtype=bool)
    unmarked_mask[marked_arcs] = False

    vals = state.amp[unmarked_mask]
    cond1 = vals.size == 0 or bool(np.max(np.abs(vals - vals.mean())) <= tol)

    cond2 = True
    for v in vs:
        if abs(float(state.amp[g.arc_slice(v)].sum())) > tol:
            cond2 = False
            break

    cond3 = bool(np.max(np.abs(state.amp - state.amp[g.partner])) <= tol)
    return cond1, cond2, cond3


def decompose_graph_initial(
    state: GraphState, marked: Iterable[int]
) -> Decomposition:
    """Split psi0 against a stationary witness.

    The witness is first rescaled so its unmarked-side amplitude matches the
    uniform amplitude 1/sqrt(deg(G)); the remainder is then supported on
    the marked-to-marked arcs only.
    """
    g = state.graph
    is_marked = np.zeros(g.n, dtype=bool)
    is_marked[np.array(g.check_marked(marked), dtype=np.intp)] = True
    free = np.flatnonzero(~(is_marked[g.tail] & is_marked[g.head]))
    if not free.size:
        raise ValueError("witness has no arc with an unmarked endpoint")
    baseline = float(state.amp[free[0]])
    if baseline == 0.0:
        raise ValueError("witness unmarked baseline is zero; cannot rescale")
    a0 = 1.0 / math.sqrt(g.arc_count)
    phi = state.amp * (a0 / baseline)
    delta = graph_uniform_state(g).amp - phi
    return Decomposition(
        GraphState(g, phi), GraphState(g, delta), float(np.dot(delta, delta))
    )


@dataclass(frozen=True)
class GenericThreeSpec:
    """Shared-arc weights for the generic three-vertex construction.

    Each marked pair (p, q) shares l_pq arcs' worth of weight; marked vertex
    p then needs m_p = sum of its two l values private unmarked neighbors so
    its amplitudes can cancel.
    """

    l12: int
    l23: int
    l31: int

    def __post_init__(self):
        for name, v in (("l12", self.l12), ("l23", self.l23), ("l31", self.l31)):
            if v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v}")

    @property
    def m1(self) -> int:
        return self.l12 + self.l31

    @property
    def m2(self) -> int:
        return self.l12 + self.l23

    @property
    def m3(self) -> int:
        return self.l23 + self.l31


def _assemble_witness(
    r: int,
    core: Sequence[tuple[int, int, float]],
    private_counts: Sequence[int],
    unmarked_mult: float,
    a: float | None,
) -> tuple[Graph, tuple[int, ...], GraphState]:
    """Marked core plus private unmarked neighbors, closed into a cycle.

    ``core`` lists (p, q, w): marked vertices p, q are adjacent and their arc
    pair carries amplitude -w * a. Private neighbors carry unmarked_mult * a
    everywhere. The private cycle keeps every unmarked vertex's amplitudes
    uniform, which is all the stationarity conditions ask of them.
    """
    edges: list[tuple[int, int]] = [(p, q) for p, q, _ in core]
    privates: list[int] = []
    nxt = r
    for p in range(r):
        for _ in range(private_counts[p]):
            edges.append((p, nxt))
            privates.append(nxt)
            nxt += 1
    if len(privates) == 2:
        edges.append((privates[0], privates[1]))
    elif len(privates) >= 3:
        edges.extend(
            (privates[i], privates[(i + 1) % len(privates)])
            for i in range(len(privates))
        )
    g = Graph.from_edges(nxt, edges)
    if a is None:
        a = 1.0 / math.sqrt(g.arc_count)
    amp = np.full(g.arc_count, unmarked_mult * a, dtype=float)
    for p, q, w in core:
        amp[g.arc_index(p, q)] = -w * a
        amp[g.arc_index(q, p)] = -w * a
    return g, tuple(range(r)), GraphState(g, amp)


def build_two_marked(
    k: int, a: float | None = None
) -> tuple[Graph, tuple[int, ...], GraphState]:
    """Witness for two adjacent marked vertices with k private neighbors each.

    All arcs carry ``a`` except the pair between the marked vertices at
    ``-k a``. Defaults ``a`` to the uniform amplitude so psi0 minus the
    witness is supported on that arc pair alone.
    """
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    return _assemble_witness(2, [(0, 1, float(k))], [k, k], 1.0, a)


def build_generic_three(
    spec: GenericThreeSpec, a: float | None = None
) -> tuple[Graph, tuple[int, ...], GraphState]:
    """Witness for three mutually adjacent marked vertices with unequal degrees.

    Marked pair (p, q) carries -l_pq * a on both arcs; vertex p gets its m_p
    private neighbors, so each marked vertex's amplitudes sum to zero.
    """
    core = [
        (0, 1, float(spec.l12)),
        (1, 2, float(spec.l23)),
        (2, 0, float(spec.l31)),
    ]
    return _assemble_witness(3, core, [spec.m1, spec.m2, spec.m3], 1.0, a)


def build_symmetric_ring(
    r: int, k: int, a: float | None = None
) -> tuple[Graph, tuple[int, ...], GraphState]:
    """Witness with r marked vertices in a cycle, k private neighbors each.

    For r = 2 this is exactly :func:`build_two_marked`. For r >= 3 the
    marked-to-marked arcs carry -(k/2) a when k is even; for odd k all
    amplitudes are scaled integrally instead (unmarked arcs 2a, marked arcs
    -k a), which keeps the same zero sums.
    """
    if r < 2:
        raise ValueError(f"need at least 2 marked vertices, got {r}")
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    if r == 2:
        return build_two_marked(k, a)
    if k % 2 == 0:
        weight, mult = k / 2.0, 1.0
    else:
        weight, mult = float(k), 2.0
    core = [(p, (p + 1) % r, weight) for p in range(r)]
    return _assemble_witness(r, core, [k] * r, mult, a)
