"""Cheeger constants of labeled graphs.

Exact values come from exhaustive subset search (vectorized dynamic
programming over bitmasks), estimates from the averaging operator
``M = (1/|S|) * sum_s action(s)``: its second eigenvalue yields the standard
d-regular lower bound ``d * (1 - lambda2) / 2`` and a sweep cut over the
near-eigenvector certifies an upper bound.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core_graph import LabeledGraph, VertexSet, boundary, edge_slots
from .errors import DegenerateVector, LengthMismatch, TooLargeForExhaustive

EXHAUSTIVE_LIMIT = 24
# Slack (per unit degree) subtracted from the spectral lower bound so that
# finite-precision Rayleigh quotients cannot push it above the true constant
# on spectrally tight graphs.
LOWER_BOUND_GUARD = 1e-9

_CHUNK = 1 << 20
# average() on (n, n): cells per row block below which threads do not pay,
# and cells per tile of rows within a block, counting the rows of all k gathers
_BLOCK_MIN_CELLS = 1 << 15
_TILE_CELLS = 1 << 16


@dataclass
class CheegerEstimate:
    """Exact Cheeger constant or a certified [lower, upper] interval."""

    kind: str  # "exact" | "interval"
    witness: VertexSet
    value: Fraction | None = None
    lower: float | None = None
    upper: float | None = None

    def as_dict(self) -> dict:
        doc: dict = {"kind": self.kind, "witness": self.witness.indices().tolist()}
        if self.kind == "exact":
            doc["value"] = [self.value.numerator, self.value.denominator]
            doc["value_float"] = float(self.value)
        else:
            doc["lower"] = self.lower
            doc["upper"] = self.upper
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

    Ties break to the lexicographically smallest witness.
    """
    n = g.n
    if n > exhaustive_limit:
        raise TooLargeForExhaustive(f"n={n} exceeds the exhaustive limit {exhaustive_limit}")
    if n < 2:
        raise ValueError("Cheeger constant needs at least 2 vertices")
    u, v, _ = edge_slots(g)
    deg = np.bincount(u, minlength=n) + np.bincount(v, minlength=n)
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b in zip(u.tolist(), v.tolist()):
        nbrs[a].append(b)
        nbrs[b].append(a)
    weighted = []
    for a in range(n):
        uniq, counts = np.unique(np.asarray(nbrs[a], dtype=np.int64), return_counts=True) if nbrs[a] else (np.zeros(0, np.int64), np.zeros(0, np.int64))
        weighted.append((uniq, counts.astype(np.int64)))

    total = 1 << n
    bnd = np.zeros(total, dtype=np.int32)
    # Masks with low bit v reference masks whose low bit is above v, so fill
    # from the top vertex down.
    for vtx in reversed(range(n)):
        step = 1 << (vtx + 1)
        base = 1 << vtx
        for start in range(base, total, _CHUNK * step):
            idx = np.arange(start, min(start + _CHUNK * step, total), step, dtype=np.int64)
            prev = idx - base
            inside = np.zeros(idx.size, dtype=np.int32)
            uniq, counts = weighted[vtx]
            for nb, w in zip(uniq.tolist(), counts.tolist()):
                if nb > vtx:  # prev has no bits below vtx set
                    inside += w * ((prev >> nb) & 1).astype(np.int32)
            bnd[idx] = bnd[prev] + int(deg[vtx]) - 2 * inside

    half = n // 2
    best: Fraction | None = None
    per_size_min = np.full(half + 1, np.iinfo(np.int32).max, dtype=np.int32)
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.uint32)
        sizes = np.bitwise_count(masks).astype(np.int64)
        ok = (sizes >= 1) & (sizes <= half)
        np.minimum.at(per_size_min, sizes[ok], bnd[start : start + masks.size][ok])
    for s in range(1, half + 1):
        if per_size_min[s] < np.iinfo(np.int32).max:
            r = Fraction(int(per_size_min[s]), s)
            if best is None or r < best:
                best = r
    assert best is not None

    cand_chunks = []
    for start in range(0, total, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        sizes = np.bitwise_count(masks.astype(np.uint32)).astype(np.int64)
        b = bnd[start : start + masks.size].astype(np.int64)
        hit = (sizes >= 1) & (sizes <= half) & (b * best.denominator == best.numerator * sizes)
        cand_chunks.append(masks[hit])
    cands = np.concatenate(cand_chunks)
    witness_mask = _lex_min_mask(cands, n)
    witness = VertexSet.from_indices(n, [i for i in range(n) if witness_mask >> i & 1])
    return CheegerEstimate(kind="exact", witness=witness, value=best)


def average(g: LabeledGraph, x: np.ndarray) -> np.ndarray:
    """The averaging operator ``(M x)[v] = mean_s x[s.v]`` on ``g`` (``x`` of
    shape ``(n,)``) or on ``g x g`` (shape ``(n, n)``, cell ``[x, y]`` is the
    product vertex ``(x, y)``, and ``s`` acts along both axes).  The result
    is float64.

    On ``g x g`` the rows are split into one block per CPU this process may
    run on, each block on its own thread (``take`` releases the GIL), once
    every block has at least 2**15 cells; smaller inputs are one block in the
    calling thread.  A block runs in tiles of rows whose gathers for all
    symbols stay in cache, so no ``(k, n, n)`` temporary is made.  Every cell
    sums the same terms in the same order whatever the split, so the result
    is bit-identical for any number of blocks.
    """
    actions = g.actions
    if x.ndim == 1:
        return x.take(actions, axis=0).mean(axis=0)
    x = np.ascontiguousarray(x, dtype=np.float64)
    if actions.size * x.shape[0] <= _TILE_CELLS:  # a single tile
        return _average_tile(actions, actions, x)
    out = np.empty_like(x)
    blocks = x.size // _BLOCK_MIN_CELLS
    if blocks > 1:
        _average_row_blocks(actions, x, out, min(blocks, _usable_cpus()))
    else:
        _average_rows(actions, x, out, 0, x.shape[0])
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on; all CPUs where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # sched_getaffinity is not on every platform
        return os.cpu_count() or 1


def _average_row_blocks(actions: np.ndarray, x: np.ndarray, out: np.ndarray, blocks: int):
    """``average`` on shape ``(n, n)`` into ``out``, the rows split into
    ``blocks`` contiguous blocks, all but the first on their own threads."""
    n = x.shape[0]
    bounds = [(n * b // blocks, n * (b + 1) // blocks) for b in range(blocks)]
    errors: list[BaseException] = []

    def run(r0: int, r1: int):
        try:
            _average_rows(actions, x, out, r0, r1)
        except BaseException as exc:  # re-raised in the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=b) for b in bounds[1:]]
    for t in threads:
        t.start()
    try:
        _average_rows(actions, x, out, *bounds[0])
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]


def _average_rows(actions: np.ndarray, x: np.ndarray, out: np.ndarray, r0: int, r1: int):
    """``out[r0:r1]`` of :func:`average`, in tiles of rows whose gathers for
    all k symbols stay in cache."""
    k, n = actions.shape
    tile = max(1, _TILE_CELLS // (k * n))
    for a in range(r0, r1, tile):
        b = min(a + tile, r1)
        out[a:b] = _average_tile(actions[:, a:b], actions, x)


def _average_tile(row_actions: np.ndarray, actions: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``sum_s x[p_s[rows]][:, p_s] / k``, summed in symbol order, where
    ``row_actions = actions[:, rows]`` for a range of rows."""
    moved = x.take(row_actions, axis=0)
    total = moved[0].take(actions[0], axis=1)
    for s in range(1, len(actions)):
        total += moved[s].take(actions[s], axis=1)
    total /= len(actions)
    return total


def lambda2(g: LabeledGraph, tol: float = 1e-10, max_iter: int = 10000, seed: int = 0) -> SpectralData:
    """Second-largest eigenvalue of the averaging operator.

    Power iteration runs on the half-lazy operator (I + M)/2, whose spectrum
    is nonnegative on connected graphs, so the dominant direction of the
    mean-zero subspace is the second-largest (signed) eigenvalue of M rather
    than the largest in magnitude.  The mean is subtracted every step.
    """
    n = g.n
    if len(g.gens) == 0:
        raise ValueError("graph has no generators")
    if n == 1:
        return SpectralData(-1.0, 0, 0.0, True, np.zeros(1))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    v -= v.mean()
    v /= np.linalg.norm(v)
    prev = None
    lam = 0.0
    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        w = 0.5 * (v + average(g, v))
        w -= w.mean()
        rho = float(v @ w)
        lam = 2.0 * rho - 1.0
        norm = float(np.linalg.norm(w))
        if norm < 1e-300:
            # (I + M)/2 annihilates v: v is an exact eigenvector for -1.
            return SpectralData(-1.0, iterations, 0.0, True, v)
        v = w / norm
        if prev is not None and abs(lam - prev) < tol:
            converged = True
            break
        prev = lam
    residual = float(np.linalg.norm(average(g, v) - lam * v))
    return SpectralData(lam, iterations, residual, converged, v)


def prefix_boundary_counts(g: LabeledGraph, order: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """|bd(prefix_j)| along ``order``, the first K cells of a descending
    order of the N cells of ``shape``: ``(n,)`` for ``g``, ``(n, n)`` for
    ``g x g`` as in :func:`average`.  Returns the counts of the prefix sizes
    j = 1..min(K, N-1), exact because every cell outside ``order`` gets
    rank K: an edge leaving the prefix is counted up to K however far out its
    other end lies.

    Only the edges that touch the K cells are visited, so the work is
    O(|S| K) after one O(N) rank fill.  For each pair representative ``s`` an edge
    ``{v, s.v}`` is met from ``v`` when ``v`` is in the order, and from
    ``s.v`` when only that end is; a self-inverse symbol meets each edge from
    both ends, so its counts are halved, and a loop adds and removes the same
    bin."""
    size = math.prod(shape)
    n = g.n
    top = order.size
    ranks = np.arange(top)
    rank = np.full(size, top, dtype=np.int64)
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

    A partial order comes from one ``np.partition`` at the ``limit``-th
    value: every cell above that value, then the tied cells with the
    smallest indices, and a sort of those ``limit`` cells only."""
    neg = -vec
    if limit is None or limit >= vec.size:
        return np.lexsort((np.arange(vec.size), neg))
    kth = np.partition(neg, limit - 1)[limit - 1]
    before = neg < kth
    tied = neg == kth
    if np.isnan(kth):  # NaN sorts last; every number comes before it
        before, tied = ~np.isnan(neg), np.isnan(neg)
    above = np.flatnonzero(before)
    top = np.concatenate((above, np.flatnonzero(tied)[: limit - above.size]))
    return top[np.lexsort((top, neg[top]))]


def sweep_cut(g: LabeledGraph, vec) -> tuple[VertexSet, float]:
    """Best prefix set of size <= n/2 along the descending order of ``vec``."""
    vec = np.asarray(vec, dtype=np.float64)
    if vec.shape != (g.n,):
        raise LengthMismatch(f"vector has length {vec.size}, graph has {g.n} vertices")
    if np.all(vec == vec[0]):
        raise DegenerateVector("sweep vector is constant")
    half = g.n // 2
    order = descending_order(vec, half)
    counts = prefix_boundary_counts(g, order, vec.shape)
    ratios = counts[:half] / np.arange(1, half + 1)
    k = int(np.argmin(ratios)) + 1  # first minimum: smallest prefix wins ties
    return VertexSet.from_indices(g.n, order[:k]), float(ratios[k - 1])


def cheeger_bounds(g: LabeledGraph, sd: SpectralData) -> CheegerEstimate:
    """Certified interval: spectral lower bound, sweep-cut upper bound.

    The lower bound carries a small numerical slack (and drops to 0 when the
    iteration did not converge); the upper bound is witnessed by an explicit
    set, so the interval always contains the exact constant.
    """
    n = g.n
    if n < 2:
        raise ValueError("Cheeger bounds need at least 2 vertices")
    d = len(g.gens)
    if sd.converged:
        lower = max(0.0, d * (1.0 - sd.lambda2) / 2.0 - d * LOWER_BOUND_GUARD)
    else:
        lower = 0.0
    singleton = VertexSet.from_indices(n, [0])
    best_set, best_ratio = singleton, float(boundary(g, singleton)[0])
    try:
        sw_set, sw_ratio = sweep_cut(g, sd.vector)
        if sw_ratio < best_ratio:
            best_set, best_ratio = sw_set, sw_ratio
    except DegenerateVector:
        pass
    upper = min(float(d), best_ratio)
    lower = min(lower, upper)
    return CheegerEstimate(kind="interval", witness=best_set, lower=lower, upper=upper)
