"""Cheeger constants of labeled graphs.

Exact values come from exhaustive subset search (vectorized dynamic
programming over bitmasks), intervals from the averaging operator
``M = (1/|S|) * sum_s action(s)``, symmetric because the symbols are closed
under inverses.  Lanczos estimates its second eigenvalue lambda2, and a sweep
cut over the Ritz vector gives an upper bound witnessed by a set.  The lower
bound is the d-regular Cheeger inequality ``h >= d (1 - lambda2) / 2``, used
only with lambda2 < mu proven for some mu: by Rump's theorem (BIT 46, 2006), a
floating-point Cholesky factorisation of the exactly representable
``tau I - K + c J`` that runs to completion proves the matrix positive
definite once the diagonal is shifted by
``gamma_{n+1} / (1 - 2 gamma_{n+1}) * trace + O(n^2) * 2**-1074``,
``gamma_{n+1} = (n+1) 2**-53 / (1 - (n+1) 2**-53)``; see :func:`cheeger_bounds`.

On the product graph ``g x g``, :func:`smooth` applies ``A = k M`` instead
of M: its walk counts ``A^j chi`` are exact integers, ordered exactly as
``M^j chi``, and no step divides.  :func:`smoothing_gap` has the gap
``||chi - M chi||^2`` exactly, from the one-step images of the cells of chi.
:func:`descending_order` and :func:`prefix_boundary_counts` sweep the counts.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .core_graph import LabeledGraph, VertexSet, boundary, edge_slots
from .errors import DegenerateVector, LengthMismatch, TooLargeForExhaustive

EXHAUSTIVE_LIMIT = 24
# Largest n for which cheeger_bounds runs the Cholesky certificate: one dense
# n x n factorisation, ~1.5 s and 256 MB at n = 4096.
CERTIFY_LIMIT = 4096

# glibc raises its mmap threshold to the size of each mapped block it frees,
# so where the n^2 buffers land, and so improve's peak RSS, varied by 2-14 MB
# with the seed, the environment and the earlier calls.  Fixed 1 MiB mmap and
# trim thresholds (process-wide) map every larger block apart, unmap it when
# freed, and leave too little free at the top of the heap to place one there.
if sys.platform.startswith("linux"):
    try:
        _libc = ctypes.CDLL(None)
        _libc.mallopt(-3, 1 << 20)  # M_MMAP_THRESHOLD
        _libc.mallopt(-1, 1 << 20)  # M_TRIM_THRESHOLD
    except (OSError, AttributeError):  # a libc without mallopt
        pass

# Lanczos: steps between checks of the top Ritz value (and the divisor of the
# step count that spaces later checks), and the beta below which the Krylov
# space counts as exhausted (|M| <= 1 and unit vectors set the scale).
_CHECK_EVERY = 16
_BREAKDOWN = 1e-12
_EPS = float(np.finfo(np.float64).eps)
# The certificate tests mu = estimate + this margin (in units of lambda2) plus
# twice the rounding shift, so that an accurate estimate factorises.
_CERTIFY_MARGIN = 2.0**-30
_UNIT_ROUNDOFF = Fraction(1, 2**53)
_SMALLEST_SUBNORMAL = Fraction(1, 2**1074)

_CHUNK = 1 << 20
# smooth()'s dense steps: cells per tile of rows, counting the rows of all k gathers
_TILE_CELLS = 1 << 16
# smooth(): a step runs on its frontier while this share of k times the
# support is below the n^2 cells; a dense pass streams, a frontier step gathers
_FRONTIER_SHARE = 16


@dataclass
class CheegerEstimate:
    """Exact Cheeger constant or a certified [lower, upper] interval."""

    kind: str  # "exact" | "interval"
    witness: VertexSet
    value: Fraction | None = None
    lower: float | None = None
    upper: float | None = None
    lower_certified: bool = False  # intervals: ``lower`` is proven, else it is 0

    def as_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "witness": self.witness.indices().tolist()}
        if self.kind == "exact":
            doc["value"] = [self.value.numerator, self.value.denominator]
            doc["value_float"] = float(self.value)
        else:
            doc["lower"] = self.lower
            doc["upper"] = self.upper
            doc["lower_certified"] = self.lower_certified
        return doc


@dataclass
class SpectralData:
    """Second eigenvalue of the averaging operator, with the near-eigenvector."""

    lambda2: float
    iterations: int
    residual: float
    converged: bool
    vector: np.ndarray = field(repr=False)


def _lex_min_mask(candidates: np.ndarray, n: int) -> int:
    """Smallest candidate bitmask in lexicographic order of sorted index tuples."""
    cand = candidates
    prefix = 0
    for v in range(n):
        has_v = (cand >> v) & 1 == 1
        with_v = cand[has_v]
        without_v = cand[~has_v]
        if with_v.size and without_v.size:
            if (without_v == prefix).any():
                return prefix  # the bare prefix is a proper prefix of the rest
            cand = with_v
            prefix |= 1 << v
        elif with_v.size:
            cand = with_v
            prefix |= 1 << v
        else:
            cand = without_v
    return int(cand[0])


def cheeger_exact(g: LabeledGraph, exhaustive_limit: int = EXHAUSTIVE_LIMIT) -> CheegerEstimate:
    """Exact min of |bd(S)|/|S| over nonempty S with |S| <= n/2.

    Ties break to the lexicographically smallest witness.  One int32 table,
    4 bytes per subset (64 MB at n = 24), holds every boundary; it is filled
    in place by |bd(S + v)| = |bd(S)| + deg(v) - 2 slots(v, S) for S within
    {0..v-1}, then read once in chunks for the least ratio, keeping the
    lex-min mask of each chunk that reaches it.
    """
    n = g.n
    if n > exhaustive_limit:
        raise TooLargeForExhaustive(f"n={n} exceeds the exhaustive limit {exhaustive_limit}")
    if n < 2:
        raise ValueError("Cheeger constant needs at least 2 vertices")
    u, v, _ = edge_slots(g)
    weight = np.zeros((n, n), dtype=np.int32)
    np.add.at(weight, (u, v), 1)
    weight += weight.T

    total = 1 << n
    bnd = np.zeros(total, dtype=np.int32)
    for top in range(n):
        upper = bnd[1 << top : 2 << top]
        np.add(bnd[: 1 << top], int(weight[top].sum()), out=upper)
        for w in np.flatnonzero(weight[top, :top]).tolist():
            upper.reshape(-1, 2, 1 << w)[:, 1] -= 2 * weight[top, w]  # the masks holding w

    # Comparing ratios as float64 is exact: division is correctly rounded, so
    # equal fractions give equal floats, and distinct ones with denominators
    # <= n/2 differ by >= 1/(n/2)**2, far above the rounding of int32 numerators.
    # The lex-min of all minimising masks is the lex-min of the per-chunk
    # lex-mins, so one mask per chunk is kept.
    best, winners = np.inf, []
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        size = np.bitwise_count(masks)
        ratio = np.divide(bnd[start : start + masks.size], size, out=np.full(masks.size, np.inf),
                          where=(size >= 1) & (size <= n // 2))
        low = ratio.min()
        if low < best:
            best, winners = low, []
        if low == best:
            winners.append(_lex_min_mask(masks[ratio == best], n))
    witness_mask = _lex_min_mask(np.array(winners, dtype=np.uint32), n)
    witness = VertexSet.from_indices(n, [i for i in range(n) if witness_mask >> i & 1])
    value = Fraction(int(bnd[witness_mask]), witness_mask.bit_count())
    return CheegerEstimate(kind="exact", witness=witness, value=value)


def average(g: LabeledGraph, x: np.ndarray) -> np.ndarray:
    """The averaging operator ``(M x)[v] = mean_s x[s.v]`` on a vector ``x``
    of shape ``(n,)``: the gathers summed in symbol order, then divided by k.
    The result is float64.  :func:`smooth` applies ``k M`` on ``g x g``.
    """
    if len(g.gens) == 0:
        raise ValueError("graph has no generators")
    actions = g.actions
    total = x.take(actions[0]).astype(np.float64, copy=False)
    for p in actions[1:]:
        total += x.take(p)
    total /= len(actions)
    return total


def smoothing_gap(g: LabeledGraph, cells: np.ndarray) -> float:
    """The gap ``||chi - M chi||^2`` on ``g x g`` of the indicator ``chi`` of
    the distinct flat cell ids ``cells`` (as in :func:`smooth`), the exact
    value correctly rounded.

    ``(A chi)[u]`` counts the symbols ``s`` with ``s.u`` in ``cells``; the
    symbols are closed under inverses, so it is the number of times ``u``
    occurs among the k |cells| images ``(s.x, s.y)`` of the cells ``(x, y)``,
    and zero off them.  So ``k^2`` times the gap is the integer sum of
    ``(k chi - A chi)^2`` over the distinct images, plus ``k^2`` for every
    cell that no image hits, and one division rounds it.  Time and memory
    are O(k |cells|): at most k n for the graph of a map, one cell per row.
    """
    k = len(g.gens)
    if k == 0:
        raise ValueError("graph has no generators")
    n = g.n
    cells = np.sort(np.asarray(cells, dtype=np.int64))
    images = np.concatenate(list(_moved_cells(g, cells)))
    hit, counts = np.unique(images, return_counts=True)
    inside = cells[np.minimum(np.searchsorted(cells, hit), cells.size - 1)] == hit
    terms = np.where(inside, k - counts, counts)  # |k chi - A chi|, at most k
    total = sum(d * d * int(m) for d, m in enumerate(np.bincount(terms)))
    total += k * k * (cells.size - int(np.count_nonzero(inside)))
    return total / (k * k)


def smooth(g: LabeledGraph, cells: np.ndarray, steps: int) -> tuple[np.ndarray, int]:
    """The walk counts ``A^steps chi`` on ``g x g``, ``A = sum_s P_s (x) P_s``,
    for the indicator ``chi`` of the distinct flat cell ids ``cells`` (cell
    ``x * n + y`` is the product vertex ``(x, y)``), with the number of cells
    computed over all steps (n^2 for a dense step).  The counts are a flat
    array of n^2 cells.

    A count is the number of the k^steps symbol words that walk its cell
    into ``cells``, and ``M^steps chi = A^steps chi / k^steps`` for the
    averaging operator ``M = A / k``.  So the counts are exact integers,
    int32 while ``k^steps < 2**31`` (every k <= 8 at 10 steps) and int64
    while ``k^steps < 2**63``, and their order, ties included, is the exact
    order of ``M^steps chi``.  Beyond that they are float64.  No step
    divides: every cell sums its k gathers in symbol order.

    ``A^j chi`` is zero outside the j-step neighbourhood of ``cells``.  While
    the support S of the current counts (``cells``, then the cells the
    previous step computed) is small, ``_FRONTIER_SHARE * k * |S| < n^2``, a
    step runs on its frontier: it computes only the cells ``(s.x, s.y)`` for
    ``(x, y)`` in S and every symbol ``s``; the symbols are closed under
    inverses, so these are all the cells with a neighbour in S.  A frontier
    step reads the cells it computes from n^2 bool marks, clears them and
    marks the cells it gathers, which the next step computes.  On the last
    step, or once the cells it computes are many by the same rule, it drops
    the marks instead, before it allocates its sums, so their n^2 bytes are
    not held next to the step's sums and gathers; every later step is a
    dense pass of :func:`_count_rows` (the support never shrinks).

    The first step reads ``chi`` and writes the first count buffer.  With a
    second step, ``chi`` is held in the count dtype and is that step's
    output buffer, so the two buffers are allocated once, next to each
    other, and take turns as input and output.
    A frontier step overwrites every cell its output buffer holds from two
    steps back (``chi`` for the second step): each such cell has a
    neighbour in the last step's support, so it is in the new support.
    """
    k = len(g.gens)
    if k == 0:
        raise ValueError("graph has no generators")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    n = g.n
    size = n * n
    dtype = _count_dtype(k, steps)
    cells = np.asarray(cells, dtype=np.int64)
    marks = None  # the cells of the next step, while it runs on its frontier
    if _FRONTIER_SHARE * k * cells.size < size:
        marks = np.zeros(size, dtype=bool)
        for moved in _moved_cells(g, cells):
            marks[moved] = True
    x = np.zeros(size, dtype=dtype if steps > 1 else bool)  # chi
    x[cells] = 1
    out = np.zeros(size, dtype=dtype)
    computed = 0
    for step in range(steps):
        if marks is None:
            _count_rows(g.actions, x.reshape(n, n), out.reshape(n, n))
            computed += size
        else:
            support = np.flatnonzero(marks)
            if step + 1 < steps and _FRONTIER_SHARE * k * support.size < size:
                marks[support] = False
            else:
                marks = None
            total = np.zeros(support.size, dtype=dtype)
            for moved in _moved_cells(g, support):
                if marks is not None:
                    marks[moved] = True
                total += x.take(moved)
            out[support] = total
            computed += support.size
        x, out = out, x
    return x, computed


def _count_dtype(k: int, steps: int) -> type:
    """The dtype of :func:`smooth`'s counts, each at most ``k^steps``."""
    bound = k ** min(steps, 64)  # for k >= 2, 64 steps pass 2**63 already
    if bound < 2**31:
        return np.int32
    if bound < 2**63:
        return np.int64
    return np.float64


def _moved_cells(g: LabeledGraph, cells: np.ndarray):
    """For each symbol ``s`` in order, the flat ids ``s.x * n + s.y`` of the
    cells ``(s.x, s.y)`` of the flat cells ``(x, y)``."""
    n = g.n
    rows, cols = np.divmod(cells, n)
    for p in g.actions:
        moved = p.take(rows)
        moved *= n
        moved += p.take(cols)
        yield moved


def _count_rows(actions: np.ndarray, x: np.ndarray, out: np.ndarray):
    """``out[u, v] = sum_s x[s.u, s.v]`` in symbol order, one step of A on
    ``g x g`` for ``x`` of shape ``(n, n)``, in tiles of rows whose gathers
    for all k symbols stay in cache, so no ``(k, n, n)`` temporary is made."""
    k, n = actions.shape
    tile = max(1, _TILE_CELLS // (k * n))
    for a in range(0, n, tile):
        rows = out[a : a + tile]
        moved = x.take(actions[:, a : a + tile], axis=0)
        rows[...] = moved[0].take(actions[0], axis=1)
        for s in range(1, k):
            rows += moved[s].take(actions[s], axis=1)


def lambda2(g: LabeledGraph, tol: float = 1e-10, max_iter: int = 10000, seed: int = 0) -> SpectralData:
    """Second-largest eigenvalue of the averaging operator, by Lanczos.

    The Lanczos recurrence runs on ``average`` restricted to mean-zero vectors
    (the mean is subtracted every step), from a random unit vector drawn with
    ``seed``, without reorthogonalisation: the top Ritz value is an estimate,
    and :func:`cheeger_bounds` proves its own bound.  It stops when the top
    eigenvalue of the tridiagonal matrix T changes by less than ``tol``
    between two checks (every 16 steps, and every 1/16 of the step count
    beyond 256 steps, so that all checks of a long run cost about as much as
    16 checks at its full length), when the Krylov space is exhausted (a
    breakdown, or n - 1 steps), or after ``max_iter`` steps; only the last is
    ``converged=False``.  ``iterations`` counts the steps.

    Only the three-term coefficients are kept, so memory is O(n + steps): the
    Ritz vector is rebuilt by running the same recurrence a second time and
    summing its vectors with the weights of T's top eigenvector.
    """
    if not (0 < tol < math.inf and max_iter >= 1):  # a NaN tol fails too
        raise ValueError(f"need a positive finite tol and max_iter >= 1, got tol={tol}, max_iter={max_iter}")
    n = g.n
    if len(g.gens) == 0:
        raise ValueError("graph has no generators")
    if n == 0:
        raise ValueError("graph has no vertices")
    if n == 1:
        return SpectralData(-1.0, 0, 0.0, True, np.zeros(1))
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(n)
    start -= start.mean()
    start /= np.linalg.norm(start)
    alphas: list[float] = []
    betas: list[float] = []
    squares: list[float] = []
    estimate = -1.0  # the spectrum of M lies in [-1, 1]
    next_check = _CHECK_EVERY
    converged = False
    for _, alpha, beta in _lanczos_vectors(g, start):
        alphas.append(alpha)
        steps = len(alphas)
        if steps == next_check:
            previous, estimate = estimate, _top_eigenvalue(alphas, squares, estimate, tol / 4)[0]
            if estimate - previous < tol:
                converged = True
                break
            next_check += max(_CHECK_EVERY, steps // _CHECK_EVERY)
        if beta <= _BREAKDOWN or steps >= n - 1:
            converged = True
            break
        if steps >= max_iter:
            break
        betas.append(beta)
        squares.append(beta * beta)
    theta, above = _top_eigenvalue(alphas, squares, estimate)
    weights = _top_eigenvector(alphas, betas, above)
    vector = np.zeros(n)
    for y, (v, _, _) in zip(weights, _lanczos_vectors(g, start)):
        vector += y * v
    vector -= vector.mean()
    vector /= np.linalg.norm(vector)
    residual = float(np.linalg.norm(average(g, vector) - theta * vector))
    return SpectralData(theta, len(alphas), residual, converged, vector)


def _lanczos_vectors(g: LabeledGraph, v: np.ndarray):
    """Lanczos vectors v_1 = ``v`` (unit, mean zero), v_2, ... of ``average``
    on mean-zero vectors, each with its coefficients (alpha_j, beta_j), where
    beta_j v_{j+1} = M v_j - alpha_j v_j - beta_{j-1} v_{j-1}.  The sequence
    ends after a breakdown.  Every run from the same ``v`` yields the same
    vectors bit for bit; a yielded vector is overwritten once the next one
    is requested."""
    v = v.copy()
    prev = np.zeros_like(v)
    beta = 0.0
    while True:
        w = average(g, v)
        prev *= beta
        w -= prev
        alpha = float(w @ v)
        w -= alpha * v
        w -= w.mean()
        beta = float(np.linalg.norm(w))
        yield v, alpha, beta
        if beta <= _BREAKDOWN:
            return
        w /= beta
        prev, v = v, w


def _top_eigenvalue(a: list[float], bb: list[float], lo: float, precision: float = 0.0) -> tuple[float, float]:
    """Largest eigenvalue of the symmetric tridiagonal matrix T with
    diagonal ``a`` and squared off-diagonal ``bb``, bracketed as (lo, hi):
    hi lies above every eigenvalue in the computed Sturm sequence (every
    LDL^T pivot of T - hi I is negative), lo does not, and hi - lo is at most
    ``precision`` or a few ulps.

    The search gallops upward from the estimate ``lo``, in practice the top
    eigenvalue of a leading block of T (a lower bound by Cauchy interlacing),
    in steps growing 4x from ``precision``, then bisects the last step; so
    its cost grows with the log of how far the eigenvalue moved."""
    while _above_all(a, bb, lo):  # an estimate above the eigenvalue
        lo -= 1.0
    step = max(precision, _EPS * max(1.0, abs(lo)))
    hi = lo + step
    while not _above_all(a, bb, hi):
        lo, step = hi, 4 * step
        hi = lo + step
    while hi - lo > max(precision, 2 * _EPS * max(1.0, abs(lo), abs(hi))):
        mid = 0.5 * (lo + hi)
        if _above_all(a, bb, mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _above_all(a: list[float], bb: list[float], x: float) -> bool:
    """Whether every LDL^T pivot of T - x I is negative (Sturm count 0
    above x), T with diagonal ``a`` and squared off-diagonal ``bb``."""
    d = a[0] - x
    if d >= 0.0:
        return False
    for ai, bi in zip(islice(a, 1, None), bb):
        d = ai - x - bi / d
        if d >= 0.0:
            return False
    return True


def _top_eigenvector(a: list[float], b: list[float], sigma: float) -> list[float]:
    """Unit top eigenvector of the tridiagonal T (diagonal ``a``,
    off-diagonal ``b``) by two steps of inverse iteration from the all-ones
    vector with the shift ``sigma`` above every eigenvalue, so that
    sigma I - T is positive definite and its LDL^T factorisation needs no
    pivoting."""
    m = len(a)
    d = [sigma - a[0]]
    for i in range(1, m):
        d.append(sigma - a[i] - b[i - 1] * b[i - 1] / d[i - 1])
    y = [1.0] * m
    for _ in range(2):
        for i in range(1, m):  # L z = y, L unit lower bidiagonal with -b/d
            y[i] += b[i - 1] / d[i - 1] * y[i - 1]
        y[m - 1] /= d[m - 1]
        for i in range(m - 2, -1, -1):  # D L^T y = z
            y[i] = y[i] / d[i] + b[i] / d[i] * y[i + 1]
        norm = math.sqrt(math.fsum(x * x for x in y))
        y = [x / norm for x in y]
    return y


def prefix_boundary_counts(g: LabeledGraph, order: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """|bd(prefix_j)| along ``order``, the first K cells of a descending
    order of the N cells of ``shape``: ``(n,)`` for ``g``, ``(n, n)`` for
    ``g x g`` as in :func:`smooth`.  Returns the counts of the prefix sizes
    j = 1..min(K, N-1), exact because every cell outside ``order`` gets
    rank K: an edge leaving the prefix is counted up to K however far out its
    other end lies.

    Only the edges that touch the K cells are visited, so the work is
    O(|S| K) after one O(N) rank fill; the rank array is int32 while N is
    below 2**31, no larger than the int32 counts of :func:`smooth` beside
    it.  For each pair representative ``s`` an edge ``{v, s.v}`` is met from
    ``v`` when ``v`` is in the order, and from ``s.v`` when only that end
    is; a self-inverse symbol meets each edge from both ends, so its counts
    are halved, and a loop adds and removes the same bin."""
    size = math.prod(shape)
    n = g.n
    top = order.size
    rank = np.full(size, top, dtype=np.int32 if size < 2**31 else np.int64)
    ranks = np.arange(top, dtype=rank.dtype)
    rank[order] = ranks
    if top == size:  # every cell: act on the rank array along every axis
        ranks = rank
        cells = rank.reshape(shape)

        def act(p: np.ndarray) -> np.ndarray:
            moved = cells
            for axis in range(cells.ndim):
                moved = moved.take(p, axis=axis)
            return moved.ravel()
    else:
        coords = np.unravel_index(order, shape)

        def act(p: np.ndarray) -> np.ndarray:
            flat = p[coords[0]]
            for c in coords[1:]:
                flat = flat * n + p[c]
            return rank[flat]

    diff = np.zeros(top + 1, dtype=np.int64)
    for i in g.gens.pair_representatives():
        j = g.gens.inverse[i]
        other = act(g.actions[i])  # the rank of s.v
        # the edge {v, s.v} crosses the prefixes of sizes min(rank)+1 .. max(rank)
        step = np.bincount(np.minimum(ranks, other), minlength=top + 1)
        if top < size:
            # edges {s^-1.v, v} with only v in the order: prefixes rank(v)+1 .. K
            back = other if j == i else act(g.actions[j])
            step[:top] += np.bincount(ranks[back == top], minlength=top)
        step -= np.bincount(np.maximum(ranks, other, out=other), minlength=top + 1)
        diff += step // 2 if j == i else step
    return np.cumsum(diff[:top])[: min(top, size - 1)]


def descending_order(vec: np.ndarray, limit: int | None = None) -> np.ndarray:
    """Vertices by value descending, ties by vertex index; only the first
    ``limit >= 1`` of them when ``limit`` is given.

    A partial order comes from one in-place partition of the negated values
    at the ``limit``-th: every cell above that value, then the tied cells
    with the smallest indices, and a stable sort of those ``limit`` cells
    only, whose indices ascend within each value.  The negated copy is the
    one array of the size of ``vec`` that is made."""
    if limit is None or limit >= vec.size:
        return np.argsort(np.negative(vec), kind="stable")
    neg = np.negative(vec)
    neg.partition(limit - 1)
    kth = neg[limit - 1]
    del neg
    if np.isnan(kth):  # NaN sorts last; every number comes before it
        before, tied = ~np.isnan(vec), np.isnan(vec)
    else:
        before, tied = vec > -kth, vec == -kth
    above = np.flatnonzero(before)
    top = np.concatenate((above, np.flatnonzero(tied)[: limit - above.size]))
    return top[np.argsort(np.negative(vec[top]), kind="stable")]


def sweep_cut(g: LabeledGraph, vec) -> tuple[VertexSet, float]:
    """Best prefix set of size <= n/2 along the descending order of ``vec``."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (g.n,):
        raise LengthMismatch(f"vector has length {vec.size}, graph has {g.n} vertices")
    if g.n < 2:
        raise ValueError("sweep cut needs at least 2 vertices")
    if np.all(vec == vec[0]):
        raise DegenerateVector("sweep vector is constant")
    half = g.n // 2
    order = descending_order(vec, half)
    counts = prefix_boundary_counts(g, order, vec.shape)
    ratios = counts[:half] / np.arange(1, half + 1)
    k = int(np.argmin(ratios)) + 1  # first minimum: smallest prefix wins ties
    return VertexSet.from_indices(g.n, order[:k]), float(ratios[k - 1])


def cheeger_bounds(g: LabeledGraph, sd: SpectralData) -> CheegerEstimate:
    """Certified interval: a proven spectral lower bound and a sweep-cut
    upper bound, so the interval always contains the exact constant.

    The upper bound is witnessed by an explicit set (the better of the sweep
    cut of ``sd.vector`` and a single vertex, and at most the degree d).

    The lower bound is d (1 - lambda2) / 2 only where lambda2 < mu is proven,
    for mu a dyadic rational just above ``sd.lambda2``; otherwise it is 0 and
    ``lower_certified`` is false.  The proof (for n <= CERTIFY_LIMIT) is a
    floating-point Cholesky factorisation of the exactly representable
    matrix ``A~ = tau I - K + c J``: K is the integer adjacency-count matrix
    (``K[v, s.v] += 1`` per symbol, symmetric because the symbols are closed
    under inverses), J the all-ones matrix and c a power of two with
    c n > d - tau, which lifts the eigenvalue of the constant vector.  By
    Rump's theorem (S. M. Rump, "Verification of positive definiteness",
    BIT 46 (2006) 433-452), a factorisation that runs to completion proves
    ``A~ + s I`` positive definite for the shift
    ``s = gamma_{n+1} / (1 - 2 gamma_{n+1}) * trace(A~) + 4 (2 (n+1) + max diag(A~)) * eta``
    with ``gamma_{n+1} = (n+1) u / (1 - (n+1) u)``, u = 2**-53 and
    eta = 2**-1074 for underflow; the shift used here has the same first term
    and the larger underflow term ``4 n (n+1) (1 + max diag(A~)) * eta``.  With d mu = tau + s, every
    eigenvalue d mu - d lambda_i (i >= 2) of ``A~ + s I`` on the mean-zero
    vectors is positive, so lambda2 < mu and h >= d (1 - mu) / 2, rounded
    down.  An estimate that is too low makes the factorisation fail, never
    the bound too high.
    """
    n = g.n
    if n < 2:
        raise ValueError("Cheeger bounds need at least 2 vertices")
    d = len(g.gens)
    lower, certified = 0.0, False
    if n <= CERTIFY_LIMIT:
        mu = _prove_lambda2_below(g, sd.lambda2)
        if mu is not None and mu < 1:
            lower, certified = _float_below(d * (1 - mu) / 2), True
    singleton = VertexSet.from_indices(n, [0])
    best_set, best_ratio = singleton, float(boundary(g, singleton)[0])
    try:
        sw_set, sw_ratio = sweep_cut(g, sd.vector)
        if sw_ratio < best_ratio:
            best_set, best_ratio = sw_set, sw_ratio
    except DegenerateVector:
        pass
    upper = min(float(d), best_ratio)
    return CheegerEstimate(
        kind="interval", witness=best_set, lower=lower, upper=upper, lower_certified=certified
    )


def _prove_lambda2_below(g: LabeledGraph, estimate: float) -> Fraction | None:
    """A dyadic mu with lambda2 < mu, proven by the Cholesky certificate of
    :func:`cheeger_bounds`, for mu just above ``estimate``; None when the
    factorisation fails or the estimate is not finite."""
    if not math.isfinite(estimate):
        return None
    n, d = g.n, len(g.gens)
    # every entry of A~ is a multiple of 2**-q below 2**(52 - q) in magnitude,
    # hence exact in float64
    q = 52 - (16 * d + 16).bit_length()
    gamma = (n + 1) * _UNIT_ROUNDOFF / (1 - (n + 1) * _UNIT_ROUNDOFF)
    rounding = gamma / (1 - 2 * gamma)
    trace_k = int(np.count_nonzero(g.actions == np.arange(n)))
    t = Fraction(d * estimate) + Fraction(d * _CERTIFY_MARGIN)  # d mu before the shift
    if t >= d:
        return None
    c = Fraction(2) ** max(-q, math.ceil(math.log2(2 * (d - t) / n)))
    t += 2 * rounding * max(0, n * (abs(t) + c) - trace_k)
    t = Fraction(math.ceil(t * 2**q), 2**q)
    shift = rounding * max(0, n * (t + c) - trace_k)
    shift += 4 * n * (n + 1) * (1 + abs(t) + c) * _SMALLEST_SUBNORMAL
    tau = Fraction(math.floor((t - shift) * 2**q), 2**q)
    a = np.full((n, n), float(c))
    for p in g.actions:
        np.subtract.at(a, (np.arange(n), p), 1.0)
    a[np.diag_indices(n)] += float(tau)
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    return t / d


def _float_below(x: Fraction) -> float:
    """The largest float not above ``x``."""
    f = float(x)
    return f if Fraction(f) <= x else math.nextafter(f, -math.inf)
