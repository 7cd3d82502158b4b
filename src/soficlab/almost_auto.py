"""Almost automorphisms: detection, boundary correspondence, improvement.

A vertex self-map ``c`` is charged one bad edge for every undirected labeled
edge ``(x, s.x)`` whose image is not an ``s``-labeled edge, i.e. whenever
``c(s.x) != s.c(x)``.  The graph of ``c`` is a subset of the product graph;
for simple graphs its edge boundary is exactly twice the number of bad edges,
and shrinking that boundary is what the improvement pipeline does: smooth the
indicator of the graph with the averaging operator, take the best sweep cut
near the original set, then repair the result to the graph of a bijection.
The product graph is never built: ``expansion.smooth`` and
``expansion.prefix_boundary_counts`` act on the n^2 cells, cell ``x * n + y``
being the product vertex ``(x, y)``, and :func:`defect_of_map` has the
boundary of the graph in closed form.  The smoothing is done in exact
integer walk counts ``A^j chi`` (``A = k M`` sums the k symbol gathers;
see ``expansion.smooth`` for their dtype): they order the cells exactly as
``M^steps chi`` does, exact ties broken by cell index.  After j steps the
counts are zero outside the j-step neighbourhood of the graph, so while
that neighbourhood is small a step computes only its cells; later steps
are dense passes over row tiles.  The smoothing gap is exact, from the k
one-step images of each cell of the graph.  The sweep orders and counts
only the top K of the n^2 cells, K certified to hold the pick (see
:func:`improve`), so past the smoothing the work scales with the chosen
set, not with n^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core_graph import (
    LabeledGraph, RootedBall, VertexSet, ball_images, good_vertices, is_connected, rooted_ball,
)
from .errors import InvalidMapFile, LengthMismatch, NotBijective
from .expansion import descending_order, lambda2, prefix_boundary_counts, smooth, smoothing_gap

REPAIR_RESCORING_LIMIT = 512


class VertexMap:
    """Self-map of the vertex set; bijectivity is validated at construction."""

    __slots__ = ("images", "bijective")

    def __init__(self, images):
        images = np.array(images, dtype=np.int64)
        n = images.size
        if n and (images.min() < 0 or images.max() >= n):
            raise ValueError("images out of range")
        images.setflags(write=False)
        self.images = images
        # the images lie in range, so the map is onto, i.e. bijective,
        # exactly when it hits every vertex
        seen = np.zeros(n, dtype=bool)
        seen[images] = True
        self.bijective = bool(seen.all())

    @classmethod
    def identity(cls, n: int) -> "VertexMap":
        return cls(np.arange(n))

    @property
    def n(self) -> int:
        return self.images.size

    def key(self) -> tuple:
        return tuple(self.images.tolist())

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexMap) and np.array_equal(self.images, other.images)

    def __repr__(self):
        return f"VertexMap({self.images.tolist()})"


def invert(c: VertexMap) -> VertexMap:
    if not c.bijective:
        raise NotBijective("only bijections can be inverted")
    return VertexMap(np.argsort(c.images))


@dataclass
class DefectReport:
    """Bad edges of a map, ``epsilon = bad_edges / n`` and the boundary of its
    graph in the product graph (``2 * bad_edges`` on simple graphs only)."""

    bad_edges: int
    epsilon: float
    boundary_of_graph: int


def graph_of_map(g: LabeledGraph, c: VertexMap) -> VertexSet:
    """The set ``{(x, c(x))}`` inside the product graph ``g x g``.

    Kept as an oracle: with :func:`product_graph` it is what the tests
    compare ``smooth``, ``prefix_boundary_counts`` and ``defect_of_map`` against."""
    if c.n != g.n:
        raise LengthMismatch(f"map on {c.n} vertices, graph has {g.n}")
    mask = np.zeros(g.n * g.n, dtype=bool)
    mask[np.arange(g.n) * g.n + c.images] = True
    return VertexSet(mask)


def defect_of_map(g: LabeledGraph, c: VertexMap) -> DefectReport:
    """Bad edges of ``c`` and the boundary of its graph, in O(k n).

    The ``s``-neighbour of ``(x, c(x))`` leaves the graph exactly when
    ``c(s.x) != s.c(x)``, so the boundary counts these mismatches over all
    symbols.  A bad edge is two mismatches (under ``s`` and its inverse, or
    from both ends), except a bad loop of a self-inverse symbol: one.
    """
    if c.n != g.n:
        raise LengthMismatch(f"map on {c.n} vertices, graph has {g.n}")
    images = c.images
    mismatch = images[g.actions] != g.actions[:, images]
    boundary_of_graph = int(np.count_nonzero(mismatch))
    bad_loops = 0
    for i, j in enumerate(g.gens.inverse):
        if i == j:
            bad_loops += int(np.count_nonzero(mismatch[i] & (g.actions[i] == np.arange(g.n))))
    bad = (boundary_of_graph + bad_loops) // 2
    return DefectReport(bad_edges=bad, epsilon=bad / g.n if g.n else 0.0, boundary_of_graph=boundary_of_graph)


@dataclass
class ImprovementConfig:
    """Knobs of the improvement pipeline.

    ``kappa`` is the user-supplied Kazhdan constant: it is never computed from
    the graph and only scales the reported symmetric-difference budget.
    ``alpha`` is the expansion ratio the chosen sweep set should satisfy
    (default: a quarter of an unproven estimate of the spectral Cheeger lower
    bound, see ``_spectral_alpha``).  The reference ball (radius ``radius``)
    defaults to the ball of the input graph at vertex 0.
    """

    kappa: float = 0.2
    alpha: float | None = None
    radius: int = 1
    smoothing_steps: int = 10
    target_delta: float = 0.0
    reference_ball: RootedBall | None = None

    def __post_init__(self):
        if not 0.0 < self.kappa <= 1.0:
            raise ValueError("kappa must lie in (0, 1]")
        if self.alpha is not None and not (0.0 < self.alpha < math.inf):
            raise ValueError("alpha must be positive and finite")
        if self.radius < 0:
            raise ValueError("radius must be >= 0")
        if self.smoothing_steps < 1:
            raise ValueError("smoothing_steps must be >= 1")
        if not 0.0 <= self.target_delta < math.inf:
            raise ValueError("target_delta must be >= 0 and finite")


@dataclass
class ImprovementTrace:
    t_size: int
    u_size: int
    symmetric_difference: int
    hamming_moved: int
    fibers_repaired: int
    final: DefectReport
    initial: DefectReport
    alpha: float
    alpha_feasible: bool
    target_met: bool
    reverted: bool
    good_set_degraded: bool
    smoothing_gap: float  # ||chi_T - M chi_T||^2
    symmetric_difference_budget: float  # (10 / kappa^2) * smoothing_gap
    candidate_bad_edges: int
    rows_trimmed: int
    cols_trimmed: int
    pairs_added: int
    empirical_moved_ratio: float | None  # hamming_moved / (initial bad edges)
    sweep_cells: int  # K of the certified top-K sweep, n^2 for the full order
    smoothed_cells: int  # cells computed over all smoothing steps, n^2 per dense step

    def as_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["final"] = dict(self.final.__dict__)
        doc["initial"] = dict(self.initial.__dict__)
        return doc


class ImprovementWorkspace:
    """Good set and effective alpha for one (graph, config) pair; reusable
    across many improve() calls.  It holds O(n) memory: the product graph
    is never materialised.

    The good set is computed at construction.  ``alpha`` is computed on its
    first read and then cached: ``cfg.alpha`` when given, the 1e-9 floor on a
    disconnected graph, else a quarter of the spectral estimate of the
    Cheeger lower bound, from ``lambda2``.  The warning for an unconverged
    ``lambda2`` fires at that first read, so a workspace whose alpha is never
    read (the cluster closure on fixed points only) never runs ``lambda2``.
    """

    __slots__ = ("good", "_graph", "_alpha")

    def __init__(self, g: LabeledGraph, cfg: ImprovementConfig):
        if g.n < 2:
            raise ValueError(f"improve needs at least 2 vertices, the graph has {g.n}")
        if len(g.gens) == 0:
            raise ValueError("graph has no generators")
        reference = cfg.reference_ball if cfg.reference_ball is not None else rooted_ball(g, 0, cfg.radius)
        self.good = good_vertices(g, reference)
        self._graph = g
        self._alpha = cfg.alpha

    @property
    def alpha(self) -> float:
        if self._alpha is None:
            self._alpha = _spectral_alpha(self._graph)
        return self._alpha


def _spectral_alpha(g: LabeledGraph) -> float:
    """A quarter of k (1 - theta) / 2, theta the Lanczos estimate of lambda2,
    or the 1e-9 floor where there is no spectral gap.  Not proven: in exact
    arithmetic the Ritz value theta is <= lambda2, so this can exceed k (1 - lambda2) / 8."""
    if not is_connected(g):
        # lambda2 is exactly 1, so there is no spectral gap; its estimate
        # lands within rounding of 1 on either side
        return 1e-9
    sd = lambda2(g, tol=1e-10, max_iter=10000, seed=0)
    if not sd.converged:
        warnings.warn(
            f"lambda2 did not converge in {sd.iterations} Lanczos steps; "
            f"alpha uses the estimate lambda2 = {sd.lambda2!r}"
        )
    lower = len(g.gens) * (1.0 - sd.lambda2) / 2.0
    return lower / 4.0 if lower > 0 else 1e-9  # the floor: no spectral gap


def _greedy_fill(g: LabeledGraph, w_col: np.ndarray, missing_rows: np.ndarray, missing_cols: np.ndarray) -> None:
    """Complete a partial permutation, one pair per missing row, preferring
    pairs whose product-graph neighbors already sit in the kept set (smallest
    added boundary).  Up to ``REPAIR_RESCORING_LIMIT`` missing rows, every
    step scores all (row, col) pairs left; above it, only the first row left
    is scored and filled, in ascending row order.  Deterministic: highest
    score first, ties by smallest (row, col)."""
    rows = list(missing_rows)
    cols = list(missing_cols)
    scored_rows = len(rows) if len(rows) <= REPAIR_RESCORING_LIMIT else 1
    while rows:
        ra = np.asarray(rows[:scored_rows], dtype=np.int64)
        ca = np.asarray(cols, dtype=np.int64)
        score = np.zeros((ra.size, ca.size), dtype=np.int64)
        for p in g.actions:
            score += w_col[p[ra]][:, None] == p[ca][None, :]
        xi, yi = np.unravel_index(int(np.argmax(score)), score.shape)
        x, y = rows.pop(int(xi)), cols.pop(int(yi))
        w_col[x] = y


def improve(
    g: LabeledGraph,
    c: VertexMap,
    cfg: ImprovementConfig,
    workspace: ImprovementWorkspace | None = None,
) -> tuple[VertexMap, ImprovementTrace]:
    """Improve an almost automorphism by spectral sweep rounding plus repair.

    The smoothed indicator is ``M^steps chi_T``, swept as the exact walk
    counts ``A^steps chi_T = k^steps M^steps chi_T`` of ``expansion.smooth``,
    so the descending order is the exact order of ``M^steps chi_T``, exact
    ties broken by cell index.  While the support is small, a step computes
    only the cells next to the previous step's support; later steps are
    whole dense passes, and the counts are the same either way.
    ``trace.smoothed_cells`` counts the cells computed, n^2 per dense step.
    ``trace.smoothing_gap`` is ``||chi_T - M chi_T||^2`` from
    ``expansion.smoothing_gap``, the exact value correctly rounded, in
    O(k |T|).  The sweep looks the ordered cells up in the sorted T cells,
    so it needs no n^2 mask of T.

    The sweep picks, among the prefixes of the descending order of the
    smoothed indicator that satisfy ``|bd(U)| <= alpha |U|``, one with the
    smallest symmetric difference ``d`` to T, then the smallest ratio, then
    the smallest size; without such a prefix, the smallest (ratio, d, size).
    Only the first K cells are ordered and counted, starting at
    K = 2 |T| + 1: a prefix of size j has d >= j - |T|, so once a feasible
    prefix with d = dmin is known, K >= |T| + dmin proves that no later
    prefix competes; a larger dmin grows K to |T| + dmin.  Without a
    feasible prefix, K becomes all n^2 cells at once (the fallback pick
    needs them); ``trace.sweep_cells`` is the final K.  The result is the
    same as a sweep over the full order.

    Never returns a map with more bad edges than the input: a worse candidate
    is discarded and ``c`` comes back unchanged with ``trace.reverted`` set.
    A final defect above ``target_delta * n`` is reported via
    ``trace.target_met`` rather than raised.
    """
    if c.n != g.n:
        raise LengthMismatch(f"map on {c.n} vertices, graph has {g.n}")
    if not c.bijective:
        raise NotBijective("improve expects a bijective input map")
    ws = workspace if workspace is not None else ImprovementWorkspace(g, cfg)
    n = g.n
    big_n = n * n
    initial = defect_of_map(g, c)
    # T: the cells (x, c(x)) of the graph of c with both coordinates good
    t_rows = np.flatnonzero(ws.good.mask & ws.good.mask[c.images])
    good_set_degraded = False
    if t_rows.size == 0:
        good_set_degraded = True
        if ws.good.cardinality == 0:
            warnings.warn("good vertex set is empty; improving over the full graph of the map")
        else:
            warnings.warn("graph of the map misses the good set; improving over the full graph")
        t_rows = np.arange(n)
    t_size = int(t_rows.size)
    t_cells = t_rows * n + c.images[t_rows]  # ascending: one cell per row
    gap = smoothing_gap(g, t_cells)
    smoothed, smoothed_cells = smooth(g, t_cells, cfg.smoothing_steps)

    # top-K sweep, K certified as in the docstring: delta_t[j] >= j - t_size
    k = min(2 * t_size + 1, big_n)
    while True:
        order = descending_order(smoothed, k)
        counts = prefix_boundary_counts(g, order, (n, n))  # prefix sizes 1..min(k, big_n-1)
        sizes = np.arange(1, counts.size + 1, dtype=np.int64)
        found = t_cells[np.minimum(np.searchsorted(t_cells, order), t_size - 1)]
        cum_t = np.cumsum(found == order)[: counts.size]
        delta_t = t_size + sizes - 2 * cum_t
        feasible = counts <= ws.alpha * sizes
        alpha_feasible = bool(feasible.any())
        if alpha_feasible:
            dmin = int(delta_t[feasible].min())
            want = min(t_size + dmin, big_n)
        else:
            want = big_n  # the fallback pick ranks every prefix
        if k >= want:
            break
        k = want
    # the n^2 counts are dead: free them before the repair allocates the
    # result, which outlives this call and so must not split their space
    del smoothed
    if alpha_feasible:
        cand = np.flatnonzero(feasible & (delta_t == dmin))
        ratios = counts[cand] / sizes[cand]
        pick = int(cand[int(np.argmin(ratios))])  # ties: smallest prefix
    else:
        ratios = counts / sizes
        pick = int(np.lexsort((sizes, delta_t, ratios))[0])
    u_size = int(sizes[pick])
    sym_diff = int(delta_t[pick])

    # order is by value descending, ties by cell: the best cell of a fiber
    # is its first along order, among the kept cells too
    rows, cols = np.divmod(order[:u_size], n)
    keep = np.sort(np.unique(rows, return_index=True)[1])
    rows_trimmed = u_size - keep.size
    rows, cols = rows[keep], cols[keep]
    keep = np.unique(cols, return_index=True)[1]
    cols_trimmed = rows.size - keep.size

    w_col = np.full(n, -1, dtype=np.int64)
    w_col[rows[keep]] = cols[keep]
    used_cols = np.zeros(n, dtype=bool)
    used_cols[cols[keep]] = True
    missing_rows = np.flatnonzero(w_col < 0)
    missing_cols = np.flatnonzero(~used_cols)
    _greedy_fill(g, w_col, missing_rows, missing_cols)
    pairs_added = int(missing_rows.size)

    candidate = VertexMap(w_col)
    cand_report = defect_of_map(g, candidate)
    if cand_report.bad_edges > initial.bad_edges:
        reverted = True
        result, final = c, initial
    else:
        reverted = False
        result, final = candidate, cand_report
    hamming_moved = int(np.count_nonzero(result.images != c.images))
    trace = ImprovementTrace(
        t_size=t_size,
        u_size=u_size,
        symmetric_difference=sym_diff,
        hamming_moved=hamming_moved,
        fibers_repaired=rows_trimmed + cols_trimmed + pairs_added,
        final=final,
        initial=initial,
        alpha=ws.alpha,
        alpha_feasible=alpha_feasible,
        target_met=final.bad_edges <= cfg.target_delta * n,
        reverted=reverted,
        good_set_degraded=good_set_degraded,
        smoothing_gap=gap,
        symmetric_difference_budget=10.0 / cfg.kappa**2 * gap,
        candidate_bad_edges=cand_report.bad_edges,
        rows_trimmed=rows_trimmed,
        cols_trimmed=cols_trimmed,
        pairs_added=pairs_added,
        empirical_moved_ratio=(hamming_moved / initial.bad_edges) if initial.bad_edges else None,
        sweep_cells=k,
        smoothed_cells=smoothed_cells,
    )
    return result, trace


def parse_map_text(text: str) -> VertexMap:
    """Map file format: one image per line, vertex order 0..n-1; blank lines
    are skipped.  A line that is not an integer in 0..n-1 raises
    :class:`InvalidMapFile` naming its line number."""
    lines = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    n = len(lines)
    images = []
    for number, token in lines:
        try:
            image = int(token)
        except ValueError:
            raise InvalidMapFile(f"line {number}: {token[:40]!r} is not an integer") from None
        if not 0 <= image < n:
            raise InvalidMapFile(f"line {number}: image {token[:40]} outside 0..{n - 1}")
        images.append(image)
    return VertexMap(images)


def format_map_text(c: VertexMap) -> str:
    return "\n".join(str(int(i)) for i in c.images) + "\n"


def label_automorphisms(g: LabeledGraph) -> list[VertexMap]:
    """All exact automorphisms of a connected labeled graph, in ascending
    order of the image of vertex 0.

    An automorphism is determined by the image v of vertex 0: propagate
    c(s.x) = s.c(x) along the tree paths of the whole-graph ball at 0.  It
    exists exactly when v is a good vertex of that ball (see
    :func:`good_vertices`: a bijection commuting with every action), so the
    maps are the tree-path images of the good vertices.  The matcher holds
    about 8.3 bytes per vertex pair (n^2 of them): the whole-graph ball
    needs no sorted copy of the images.
    """
    if g.n == 0:
        return []
    ball = rooted_ball(g, 0, g.n)
    if ball.size < g.n:
        raise ValueError("automorphism enumeration requires a connected graph")
    images = ball_images(g, ball, good_vertices(g, ball).indices())
    maps = np.empty_like(images)
    maps[:, images[0]] = images  # row 0 walks from vertex 0: the ball order
    return [VertexMap(row) for row in maps]
