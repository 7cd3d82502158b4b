"""Hamming-distance geometry of almost automorphisms.

Close maps (distance at most n/5) cluster together; the dichotomy forbids the
middle band, so clustering is an equivalence.  Products of representatives,
pushed back to small defect by the improvement pipeline, turn the clusters
into a finite group, and a multiplicative embedding of a finite word set into
that group is exactly a LEF certificate.

Distance thresholds are compared in exact integer arithmetic
(``5*d <= n`` for "within n/5" and ``n < 5*d <= 4*n`` for the forbidden band).

The cluster closure asks for the improvement of the same few maps many times
(28,800 requests on 24 distinct maps for Cay(S4)), so ``_Closure`` memoises
``improve`` by the bytes of the input map.  The memo is exact: ``improve`` is
deterministic for a fixed graph, config and workspace, and all three are
fixed for the lifetime of one ``_Closure``, i.e. one ``cluster_group`` call.
Only improvements that passed both hypothesis checks are stored, so a failing
input raises again each time it is requested.  Warnings of ``improve`` (such
as "graph of the map misses the good set") fire once per distinct input, not
once per request.

The table and the associativity inequality work on indices into the k x n
stack of final representatives.  Write P[i, j] for the improved product of
representatives i and j and t for the table.  Where P[b, c] is byte-equal to
representative t[b, c], the input of a.(bc) is the product input of
(a, t[b, c]), so its improvement is P[a, t[b, c]] without a request to the
memo; likewise (ab).c is P[t[a, b], c] where P[a, b] is byte-equal to its
representative.  Between two representatives the distance is read off the
k x k distance matrix.  Only products that differ from their representative
are kept as rows, so no k x k x n array is formed.  The memo holds one map of
n ints per distinct input: at most 2k^2 + 2km for k clusters, m of whose k^2
products differ from their representative (closure products, table products
and the inequality's inputs); 24 on Cay(S4), where m = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .almost_auto import (
    ImprovementConfig,
    ImprovementWorkspace,
    VertexMap,
    defect_of_map,
    improve,
    invert,
)
from .core_graph import GeneratorSet, LabeledGraph, restrict_labels, subset_of_generators
from .errors import (
    ClosureFailure,
    CollisionFailure,
    DefectTooLarge,
    HypothesisViolation,
    LengthMismatch,
    MultiplicativityFailure,
    NonPositiveCheeger,
    NotBijective,
    StructureViolation,
)
from .sofic import Word, word_action

CLOSURE_FACTOR = 10


def hamming(c1: VertexMap, c2: VertexMap) -> int:
    """Number of vertices where the two maps disagree."""
    if c1.n != c2.n:
        raise LengthMismatch(f"maps on {c1.n} and {c2.n} vertices")
    return int(np.count_nonzero(c1.images != c2.images))


@dataclass
class DichotomyReport:
    n: int
    threshold: float  # 2 * delta * n / h
    pairs_checked: int
    violations: list[tuple[int, int, int]]

    @property
    def ok(self) -> bool:
        return not self.violations


def _check_delta(delta: float):
    # a NaN delta would make every ``bad > delta * n`` check pass
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")


def _check_delta_maps(g: LabeledGraph, delta: float, maps: list[VertexMap], require_bijective: bool):
    _check_delta(delta)
    for idx, m in enumerate(maps):
        if require_bijective and not m.bijective:
            raise NotBijective(f"map {idx} is not a bijection")
        bad = defect_of_map(g, m).bad_edges
        if bad > delta * g.n:
            raise DefectTooLarge(
                f"map {idx} has {bad} bad edges, above delta*n = {delta * g.n:g}"
            )


def dichotomy_check(g: LabeledGraph, delta: float, maps: list[VertexMap], h: float) -> DichotomyReport:
    """Every pair of delta-almost automorphisms must satisfy
    d <= 2*delta*n/h or d >= n - 2*delta*n/h; returns the violating pairs."""
    if not 0 < h < math.inf:  # NaN fails too
        raise NonPositiveCheeger(f"the dichotomy bound needs a positive finite h, got {h}")
    _check_delta_maps(g, delta, maps, require_bijective=False)
    n = g.n
    thr = 2.0 * delta * n / h
    violations = []
    if maps:
        violations = _pairwise(np.stack([m.images for m in maps]), lambda d: (thr < d) & (d < n - thr))[1]
    return DichotomyReport(n, thr, len(maps) * (len(maps) - 1) // 2, violations)


@dataclass
class Cluster:
    representative: VertexMap  # lexicographically smallest member
    members: list[VertexMap]
    delta: float


# cells (bools) compared per block by _distances: 4 MB of temporaries
_BLOCK_CELLS = 1 << 22


def _distances(rows: np.ndarray, others: np.ndarray) -> np.ndarray:
    """Hamming distances between every row of ``rows`` and every row of
    ``others`` (two image stacks), compared in blocks of rows so that no
    (len(rows), len(others), n) array is formed."""
    out = np.empty((len(rows), len(others)), dtype=np.int64)
    step = max(1, _BLOCK_CELLS // max(1, others.size))
    for s in range(0, len(rows), step):
        out[s : s + step] = np.count_nonzero(rows[s : s + step, None, :] != others[None, :, :], axis=2)
    return out


def _pairwise(stack: np.ndarray, in_band) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """Distance matrix of the rows of ``stack`` and the pairs (i, j, d),
    i < j in row-major order, whose distance d satisfies the vectorised
    predicate ``in_band``."""
    dist = _distances(stack, stack)
    i, j = np.nonzero(np.triu(in_band(dist), 1))
    return dist, list(zip(i.tolist(), j.tolist(), dist[i, j].tolist()))


def cluster_maps(g: LabeledGraph, delta: float, maps: list[VertexMap]) -> list[Cluster]:
    """Partition delta-almost automorphisms by the distance-n/5 relation.

    Any pairwise distance in (n/5, 4n/5] breaks the dichotomy hypotheses and
    raises StructureViolation.
    """
    maps = list(maps)
    _check_delta_maps(g, delta, maps, require_bijective=True)
    if not maps:
        return []
    n = g.n
    dist, gap = _pairwise(np.stack([m.images for m in maps]), lambda d: (n < 5 * d) & (5 * d <= 4 * n))
    if gap:
        raise StructureViolation(
            f"{len(gap)} pairwise distances in (n/5, 4n/5]", violations=gap
        )
    # with no distance in (n/5, 4n/5], "within n/5" is transitive:
    # d(a, b), d(b, c) <= n/5 gives d(a, c) <= 2n/5 <= 4n/5, hence d(a, c) <= n/5;
    # so each map belongs with the first map within n/5 of it
    first = np.argmax(5 * dist <= n, axis=1)
    groups: dict[int, list[VertexMap]] = {}
    for m, root in zip(maps, first.tolist()):
        groups.setdefault(root, []).append(m)
    clusters = []
    for members in groups.values():
        members = sorted(members, key=lambda m: m.key())
        clusters.append(Cluster(members[0], members, delta))
    clusters.sort(key=lambda cl: cl.representative.key())
    return clusters


def _thresholds(n: int) -> str:
    return f"n = {n}, n/5 = {n / 5:g}, 4n/5 = {4 * n / 5:g}"


def _locate(reps: np.ndarray, m: VertexMap) -> int | None:
    """Row of the k x n representative stack within n/5 of ``m``, or None.
    Raises HypothesisViolation when two rows are that close or a distance
    falls in the forbidden band (n/5, 4n/5]."""
    n = reps.shape[1]
    dist = _distances(m.images[None, :], reps)[0]
    hits = np.flatnonzero(5 * dist <= n)
    if hits.size > 1:
        i, j = hits[:2]
        raise HypothesisViolation(
            f"map lies within n/5 of representatives {i} and {j} "
            f"(distances {dist[i]} and {dist[j]}; {_thresholds(n)})"
        )
    band = np.flatnonzero((5 * dist > n) & (5 * dist <= 4 * n))
    if band.size:
        i = band[0]
        raise HypothesisViolation(
            f"distance {dist[i]} to representative {i} falls in (n/5, 4n/5] ({_thresholds(n)})"
        )
    return int(hits[0]) if hits.size else None


@dataclass
class ClusterGroup:
    clusters: list[Cluster]
    table: np.ndarray
    identity_index: int
    inverse_map: np.ndarray
    graph: LabeledGraph
    delta: float
    # improvements the algorithm consumed, whether an improve call, a memo hit
    # or an index identity of the table answered them
    improve_requests: int
    improve_calls: int  # memo misses, i.e. actual improve calls
    closure_rounds: int

    @property
    def order(self) -> int:
        return len(self.clusters)

    def as_dict(self) -> dict:
        order, elem_orders, abelian = group_invariants(self)
        return {
            "order": order,
            "element_orders": elem_orders,
            "abelian": abelian,
            "identity_index": self.identity_index,
            "inverse_map": self.inverse_map.tolist(),
            "table": self.table.tolist(),
            "representatives": [cl.representative.images.tolist() for cl in self.clusters],
            "counters": {
                "improve_requests": self.improve_requests,
                "improve_calls": self.improve_calls,
                "closure_rounds": self.closure_rounds,
            },
        }


class _Closure:
    """Grows the cluster family until it is closed under product and inverse.

    Improvements are memoised by input bytes for the lifetime of the object;
    see the module docstring for why that is exact.
    """

    def __init__(self, g: LabeledGraph, delta: float, cfg: ImprovementConfig, bound: int):
        self.g = g
        self.n = g.n
        self.delta = delta
        self.cfg = cfg
        self.ws = ImprovementWorkspace(g, cfg)
        self.bound = bound
        self.members: list[list[VertexMap]] = []
        self.reps: list[VertexMap] = []
        self.stack = np.empty((0, self.n), dtype=np.int64)  # reps as rows
        self.by_key: dict[bytes, int] = {}  # bytes of every placed map -> cluster
        self.memo: dict[bytes, VertexMap] = {}  # input bytes -> checked improvement
        self.requests = 0
        self.calls = 0
        self.rounds = 0

    def _improved(self, key: bytes) -> VertexMap:
        """Checked improvement of the map whose int64 images are ``key``."""
        out = self.memo.get(key)
        if out is not None:
            return out
        self.calls += 1
        m = VertexMap(np.frombuffer(key, dtype=np.int64))
        out, trace = improve(self.g, m, self.cfg, workspace=self.ws)
        bad = trace.final.bad_edges
        if bad > self.delta * self.n:
            raise HypothesisViolation(
                f"improvement left {bad} bad edges, above delta*n = {self.delta * self.n:g}"
            )
        if 5 * trace.hamming_moved > self.n:
            raise HypothesisViolation(
                f"improvement moved a composition by distance {trace.hamming_moved} > n/5 "
                f"({_thresholds(self.n)})"
            )
        self.memo[key] = out
        return out

    def improved_row(self, row: np.ndarray) -> VertexMap:
        """Checked improvement of the map with int64 images ``row``."""
        self.requests += 1
        return self._improved(row.tobytes())

    def improved_rows(self, rows: np.ndarray) -> np.ndarray:
        """Improvements of the rows of an (r, n) image array, deduplicated
        through the memo's byte keys."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if not len(rows):
            return rows
        keys = rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()
        self.requests += len(keys)
        slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        distinct = np.stack([self._improved(key).images for key in slot])
        return distinct[[slot[key] for key in keys]]

    def place(self, m: VertexMap) -> int:
        key = m.images.tobytes()
        if key in self.by_key:
            return self.by_key[key]
        idx = _locate(self.stack, m)
        if idx is not None:
            self.members[idx].append(m)
        else:
            if len(self.reps) >= self.bound:
                raise ClosureFailure(
                    f"closure exceeded {self.bound} clusters; hypotheses likely fail"
                )
            idx = len(self.reps)
            self.reps.append(m)
            self.stack = np.vstack([self.stack, m.images])
            self.members.append([m])
        self.by_key[key] = idx
        return idx

    def run(self, seeds: list[VertexMap]):
        for m in seeds:
            self.place(m)
        done = 0  # inverses of reps [0, done) and all their products are placed
        while True:
            self.rounds += 1
            size = len(self.reps)
            if done == size:
                break
            for i in range(done, size):
                self.place(invert(self.reps[i]))
            stack = self.stack[:size]
            # the new pairs in row-major order, one gather per row
            for i in range(size):
                for row in stack[i][stack[done if i < done else 0 :]]:
                    self.place(self.improved_row(row))
            done = size


class _Representatives:
    """The final representatives as a k x n stack, their k x k distance
    matrix and a bytes -> index dict.  Raises HypothesisViolation when two
    of them lie within 4n/5."""

    def __init__(self, stack: np.ndarray):
        n = stack.shape[1]
        self.stack = stack
        self.dist, close = _pairwise(stack, lambda d: 5 * d <= 4 * n)
        if close:
            i, j, d = close[0]
            raise HypothesisViolation(
                f"representatives {i} and {j} lie at distance {d} <= 4n/5 ({_thresholds(n)})"
            )
        self.index = {row.tobytes(): i for i, row in enumerate(stack)}

    def locate(self, m: VertexMap) -> tuple[int, bool]:
        """Cluster of ``m``, and whether ``m`` is byte-equal to its
        representative.  A representative is found through the dict: it lies
        farther than 4n/5 from every other one, so ``_locate`` would return
        its index without raising.  Other maps go through ``_locate``."""
        idx = self.index.get(m.images.tobytes())
        if idx is not None:
            return idx, True
        idx = _locate(self.stack, m)
        if idx is None:
            raise HypothesisViolation("map lies within n/5 of 0 representatives")
        return idx, False

    def products(self, improved_row) -> "_Products":
        """Improved products of all pairs of representatives, located in
        row-major order; ``improved_row`` maps an image row to its checked
        improvement."""
        k, n = self.stack.shape
        table = np.empty((k, k), dtype=np.int64)
        slot = np.full((k, k), -1, dtype=np.int64)
        rows = []
        for i in range(k):
            for j, row in enumerate(self.stack[i][self.stack]):
                prod = improved_row(row)
                table[i, j], exact = self.locate(prod)
                if not exact:
                    slot[i, j] = len(rows)
                    rows.append(prod.images)
        return _Products(table, slot, np.array(rows, dtype=np.int64).reshape(len(rows), n))


@dataclass
class _Products:
    """Improved products P[i, j] of the representatives, by index.

    P[i, j] lies in cluster ``table[i, j]``.  Where ``slot[i, j]`` is -1 it is
    byte-equal to that cluster's representative, else it is
    ``rows[slot[i, j]]``; slots count up in row-major order.
    """

    table: np.ndarray
    slot: np.ndarray
    rows: np.ndarray


def _check_associativity_inequality(reps: _Representatives, prods: _Products, improve_rows) -> int:
    """Verify d(a(bc), (ab)c) <= 4n/5 for every triple of representatives.

    a(bc) is the improvement of reps[a] . P[b, c] and (ab)c that of
    P[a, b] . reps[c]; ``improve_rows`` maps an (r, n) image array to its
    improvements.  The index identities of the module docstring answer the
    inputs whose product is byte-equal to its representative.  The others go
    through ``improve_rows`` in one batch per ``a``, left inputs then right
    ones, each in row-major order, so the first failing improvement and the
    lexicographically first failing triple, which raises
    HypothesisViolation, are those of a scan over all 2k^3 inputs.  Returns
    the number of improvements the index identities answered.
    """
    stack, rows, t, slot = reps.stack, prods.rows, prods.table, prods.slot
    k, n = stack.shape
    m = len(rows)
    eq = slot < 0
    rank = np.cumsum(~eq, axis=1) - 1  # position of P[a, b] among the rows of a
    answered = 0
    for a in range(k):
        # a(bc) = P[a, t[b, c]] where eq[b, c]; (ab)c = P[t[a, b], c] where eq[a, b]
        left_t, left_slot = t[a][t], slot[a][t]
        right_t, right_slot = t[t[a]], slot[t[a]]
        dist = reps.dist[left_t, right_t]  # exact where both are representatives
        # the other inputs: rows holds P[b, c] for the (b, c) with ~eq[b, c]
        # in row-major order, so a . rows are the left ones in that order
        new = improve_rows(np.concatenate([stack[a][rows], rows[slot[a][~eq[a]]][:, stack].reshape(-1, n)]))
        answered += 2 * k * k - len(new)
        other = ~(eq & (left_slot < 0) & eq[a][:, None] & (right_slot < 0))
        if other.any():
            # rows of pool: representatives, stored products, new left rows, new right rows
            pool = np.concatenate([stack, rows, new])
            left = np.where(eq, np.where(left_slot < 0, left_t, k + left_slot), k + m + slot)
            right = np.where(
                eq[a][:, None],
                np.where(right_slot < 0, right_t, k + right_slot),
                k + 2 * m + k * rank[a][:, None] + np.arange(k),
            )
            b, c = np.nonzero(other)
            left, right = left[b, c], right[b, c]
            step = max(1, _BLOCK_CELLS // n)
            for s in range(0, len(b), step):
                block = slice(s, s + step)
                dist[b[block], c[block]] = np.count_nonzero(pool[left[block]] != pool[right[block]], axis=1)
        failing = np.flatnonzero(5 * dist > 4 * n)
        if failing.size:
            b, c = divmod(int(failing[0]), k)
            raise HypothesisViolation(
                f"associativity inequality fails on triple {(a, b, c)} "
                f"(distance {dist[b, c]} > 4n/5; {_thresholds(n)})"
            )
    return answered


def cluster_group(
    g: LabeledGraph,
    delta: float,
    seed_maps: list[VertexMap],
    cfg: ImprovementConfig,
    closure_bound: int | None = None,
) -> ClusterGroup:
    """Close the seed clusters under improved products and inverses, then
    build and verify the multiplication table.

    The two Lemma hypotheses are runtime-checked: improved compositions must
    land within n/5 of their input and of one representative, and no pairwise
    distance may fall in (n/5, 4n/5]; distinct final representatives must lie
    farther than 4n/5 apart.  The associativity inequality
    d(a(bc), (ab)c) <= 4n/5 is verified for all representative triples, and
    the table itself must be exactly associative.

    Every improvement goes through one memo that lives for this call only, so
    ``improve`` runs once per distinct input map (exact, because ``improve``
    is deterministic for the fixed graph, config and workspace).  The table
    and the inequality work on indices into the representatives, as the
    module docstring describes, in O(k^2 n + k^3) time when every product is
    byte-equal to its representative.  Warnings of ``improve`` fire once per
    distinct input.  The result counts the improvement requests, i.e. every
    improvement the algorithm consumes, whether an ``improve`` call, a memo
    hit or an index identity answered it (the closure's products, k^2 for
    the table and 2k^3 for the inequality), the actual ``improve`` calls and
    the closure rounds.
    """
    seeds = list(seed_maps)
    if not seeds:
        raise ValueError("seed_maps must be nonempty")
    _check_delta_maps(g, delta, seeds, require_bijective=True)
    cfg = replace(cfg, target_delta=delta)
    bound = closure_bound if closure_bound is not None else CLOSURE_FACTOR * len(seeds)
    closure = _Closure(g, delta, cfg, bound)
    closure.run(seeds)

    # canonical order and lex-min representatives, then one deterministic
    # rebuild of the table against the final representatives
    final_members = [sorted(mem, key=lambda m: m.key()) for mem in closure.members]
    final_members.sort(key=lambda mem: mem[0].key())
    clusters = [Cluster(mem[0], mem, delta) for mem in final_members]
    reps = _Representatives(np.stack([cl.representative.images for cl in clusters]))
    k = len(clusters)

    identity_index = reps.locate(VertexMap.identity(g.n))[0]
    prods = reps.products(closure.improved_row)
    table = prods.table
    inverse_map = np.array([reps.locate(invert(cl.representative))[0] for cl in clusters], dtype=np.int64)

    if not np.array_equal(table[identity_index], np.arange(k)) or not np.array_equal(
        table[:, identity_index], np.arange(k)
    ):
        raise HypothesisViolation("identity cluster does not act as the identity")
    for i in range(k):
        if inverse_map[inverse_map[i]] != i or table[i, inverse_map[i]] != identity_index:
            raise HypothesisViolation("inverse map is inconsistent with the table")
    for a in range(k):
        if not np.array_equal(table[table[a]], table[a][table]):
            raise HypothesisViolation("cluster multiplication table is not associative")
    answered = _check_associativity_inequality(reps, prods, closure.improved_rows)
    closure.requests += answered  # read after the call, which counts requests too
    return ClusterGroup(
        clusters,
        table,
        identity_index,
        inverse_map,
        g,
        delta,
        improve_requests=closure.requests,
        improve_calls=closure.calls,
        closure_rounds=closure.rounds,
    )


def group_invariants(cg: ClusterGroup) -> tuple[int, list[int], bool]:
    """(order, sorted element orders, abelian flag) of a cluster group."""
    k = cg.order
    orders = []
    for i in range(k):
        power, o = i, 1
        while power != cg.identity_index:
            power = int(cg.table[power, i])
            o += 1
            if o > k:
                raise HypothesisViolation("element order exceeds the group order")
        orders.append(o)
    abelian = bool(np.array_equal(cg.table, cg.table.T))
    return k, sorted(orders), abelian


@dataclass
class LefCertificate:
    status: str
    group_order: int
    element_orders: list[int]
    table: np.ndarray
    witnesses: list[dict]
    group: ClusterGroup

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "group_order": self.group_order,
            "element_orders": self.element_orders,
            "table": self.table.tolist(),
            "witnesses": self.witnesses,
        }


def lef_certificate(
    g: LabeledGraph,
    gamma_labels,
    f_words: list[Word],
    delta: float,
    cfg: ImprovementConfig,
) -> LefCertificate:
    """Finite multiplicative embedding of a word set, extracted from clusters.

    Words over the complement labels act on the full graph; their defects are
    measured on the gamma-labeled subgraph only.  The certificate succeeds
    when all pairwise products land in pairwise distinct clusters and cluster
    multiplication matches word concatenation.
    """
    _check_delta(delta)
    if not f_words:
        raise ValueError("word list must be nonempty")
    if isinstance(gamma_labels, GeneratorSet):
        gamma = gamma_labels
    else:
        gamma = subset_of_generators(g, gamma_labels)
    g_gamma = restrict_labels(g, gamma)
    gamma_set = set(gamma.symbols)
    for w in f_words:
        for letter in w.letters:
            g.gens.index(letter)
            if letter in gamma_set:
                raise ValueError(f"word letter {letter!r} is a gamma label")

    f_letters: list[tuple[str, ...]] = []
    for w in f_words:
        if w.letters not in f_letters:
            f_letters.append(w.letters)
    ff_letters = list(f_letters)
    for w1 in f_letters:
        for w2 in f_letters:
            if w1 + w2 not in ff_letters:
                ff_letters.append(w1 + w2)

    maps: dict[tuple[str, ...], VertexMap] = {}
    for letters in ff_letters:
        m = VertexMap(word_action(g, Word(letters, True)))
        bad = defect_of_map(g_gamma, m).bad_edges
        if bad > delta * g.n:
            raise DefectTooLarge(
                f"word {' '.join(letters) or '()'} has {bad} bad gamma edges, above delta*n"
            )
        maps[letters] = m

    cg = cluster_group(g_gamma, delta, [maps[w] for w in ff_letters], cfg)
    stack = np.stack([cl.representative.images for cl in cg.clusters])

    def locate(m: VertexMap) -> int:
        idx = _locate(stack, m)
        if idx is None:
            raise HypothesisViolation("word map does not sit in a unique cluster")
        return idx

    cluster_of = {letters: locate(maps[letters]) for letters in ff_letters}
    seen: dict[int, tuple[str, ...]] = {}
    for letters in ff_letters:
        idx = cluster_of[letters]
        if idx in seen and seen[idx] != letters:
            raise CollisionFailure(
                f"words {' '.join(seen[idx]) or '()'} and {' '.join(letters) or '()'} share cluster {idx}"
            )
        seen.setdefault(idx, letters)
    for w1 in f_letters:
        for w2 in f_letters:
            expected = cluster_of[w1 + w2]
            got = int(cg.table[cluster_of[w1], cluster_of[w2]])
            if got != expected:
                raise MultiplicativityFailure(
                    f"cluster({' '.join(w1) or '()'}) * cluster({' '.join(w2) or '()'}) = {got}, "
                    f"but cluster of the concatenation is {expected}"
                )
    order, element_orders, _ = group_invariants(cg)
    witnesses = [
        {"word": list(letters), "cluster": cluster_of[letters]} for letters in ff_letters
    ]
    return LefCertificate(
        status="certified",
        group_order=order,
        element_orders=element_orders,
        table=cg.table,
        witnesses=witnesses,
        group=cg,
    )
