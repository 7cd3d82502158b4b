"""Hamming-distance geometry of almost automorphisms.

Close maps (distance at most n/5) cluster together; the dichotomy forbids the
middle band, so clustering is an equivalence.  Products of representatives,
pushed back to small defect by the improvement pipeline, turn the clusters
into a finite group, and a multiplicative embedding of a finite word set into
that group is exactly a LEF certificate.

Distance thresholds are compared in exact integer arithmetic
(``5*d <= n`` for "within n/5" and ``n < 5*d <= 4*n`` for the forbidden band).

Every distinct map that one ``cluster_group`` call meets (seeds, inverses and
improvements) is interned once as an integer id, its row in the closure's
``pool``; clusters are lists of ids and each id caches its cluster.  The
cluster closure asks for the improvement of the same few maps many times
(28,800 requests on 24 distinct maps for Cay(S4)), so ``_Closure`` memoises
the id of the checked improvement by the bytes of the input map.  The memo is
exact: ``improve`` is deterministic for a fixed graph, config and workspace,
and all three are fixed for the lifetime of one ``_Closure``, i.e. one
``cluster_group`` call.  Only improvements that passed both hypothesis checks
are stored, so a failing input raises again each time it is requested.
Warnings of ``improve`` (such as "graph of the map misses the good set") fire
once per distinct input, not once per request.

The table and the associativity inequality work on ids.  Write P[i, j] for
the id of the improved product of representatives i and j and t for the
table.  Where P[b, c] is the id of representative t[b, c], the input of
a.(bc) is the product input of (a, t[b, c]), so its improvement is
P[a, t[b, c]] without a request to the memo; likewise (ab).c is
P[t[a, b], c] where P[a, b] is the id of its representative.  Equal ids are
the same map, at distance 0; only pairs of differing ids are compared row by
row, so no k x k x n array is formed.  The memo keys hold n ints per
distinct input: at most 2k^2 + 2km for k clusters, m of whose k^2 products
are not their representative (closure products, table products and the
inequality's inputs).  The pool holds n ints per distinct map: the seeds,
the inverses of the closure's and of the final representatives (at most 2k),
the identity and the distinct improvements.  On Cay(S4) both hold 24; on the
pinned corrupted Cay(S4) document the memo holds 611 and the pool 40.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .almost_auto import (
    ImprovementConfig,
    ImprovementWorkspace,
    VertexMap,
    defect_of_map,
    improve,
    invert,
)
from .core_graph import LabeledGraph, restrict_labels, subset_of_generators
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


def _locate(reps: np.ndarray, row: np.ndarray) -> int | None:
    """Row of the k x n representative stack within n/5 of the image row
    ``row``, or None.
    Raises HypothesisViolation when two rows are that close or a distance
    falls in the forbidden band (n/5, 4n/5]."""
    n = reps.shape[1]
    dist = _distances(row[None, :], reps)[0]
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


def _checked_improvement(g: LabeledGraph, delta: float, cfg: ImprovementConfig):
    """The improvement of an int64 image row, as an image row, under the two
    hypothesis checks: at most delta*n bad edges left, moved by at most n/5.
    A failing check raises HypothesisViolation."""
    ws = ImprovementWorkspace(g, cfg)
    n = g.n

    def improved(row: np.ndarray) -> np.ndarray:
        out, trace = improve(g, VertexMap(row), cfg, workspace=ws)
        bad = trace.final.bad_edges
        if bad > delta * n:
            raise HypothesisViolation(f"improvement left {bad} bad edges, above delta*n = {delta * n:g}")
        if 5 * trace.hamming_moved > n:
            raise HypothesisViolation(
                f"improvement moved a composition by distance {trace.hamming_moved} > n/5 ({_thresholds(n)})"
            )
        return out.images

    return improved


class _Closure:
    """Grows the cluster family until it is closed under product and inverse.

    Every distinct map gets one id, its row in ``pool``.  ``improved`` is the
    checked improvement of an image row; its results are memoised by input
    bytes for the lifetime of the object, see the module docstring for why
    that is exact.  Clusters are lists of ids.
    """

    def __init__(self, n: int, improved, bound: int):
        self.n = n
        self.improved = improved
        self.bound = bound
        self.pool = np.empty((16, n), dtype=np.int64)  # rows [0, len(ids)) are maps
        self.ids: dict[bytes, int] = {}  # map bytes -> id
        self.memo: dict[bytes, int] = {}  # input bytes -> id of its checked improvement
        self.cluster: list[int] = []  # cluster of each id, -1 until placed
        self.members: list[list[int]] = []
        self.stack = np.empty((0, n), dtype=np.int64)  # first member of each cluster
        self.requests = 0
        self.calls = 0
        self.rounds = 0

    def intern(self, row: np.ndarray) -> int:
        """Id of the map with int64 images ``row``."""
        key = row.tobytes()
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ids)
            if i == len(self.pool):
                grown = np.empty((2 * i, self.n), dtype=np.int64)
                grown[:i] = self.pool
                self.pool = grown
            self.pool[i] = row
            self.cluster.append(-1)
        return i

    def _improved(self, key: bytes) -> int:
        i = self.memo.get(key)
        if i is None:
            self.calls += 1
            i = self.memo[key] = self.intern(self.improved(np.frombuffer(key, dtype=np.int64)))
        return i

    def improved_row(self, row: np.ndarray) -> int:
        """Id of the checked improvement of the map with int64 images ``row``."""
        self.requests += 1
        return self._improved(row.tobytes())

    def improved_rows(self, rows: np.ndarray) -> np.ndarray:
        """Ids of the checked improvements of the rows of an (r, n) int64
        array, requested in row order."""
        keys = rows.view(np.dtype((np.void, self.n * 8))).ravel().tolist()
        self.requests += len(keys)
        return np.fromiter(map(self._improved, keys), dtype=np.int64, count=len(keys))

    def place(self, i: int) -> int:
        """Cluster of map ``i``; a map farther than n/5 from every cluster
        starts a new one."""
        c = self.cluster[i]
        if c >= 0:
            return c
        row = self.pool[i]
        c = _locate(self.stack, row)
        if c is None:
            if len(self.members) >= self.bound:
                raise ClosureFailure(f"closure exceeded {self.bound} clusters; hypotheses likely fail")
            c = len(self.members)
            self.stack = np.vstack([self.stack, row])
            self.members.append([])
        self.members[c].append(i)
        self.cluster[i] = c
        return c

    def run(self, seeds: list[VertexMap]):
        for m in seeds:
            self.place(self.intern(m.images))
        done = 0  # inverses of clusters [0, done) and all their products are placed
        while True:
            self.rounds += 1
            size = len(self.members)
            if done == size:
                break
            # pool rows are bijections: seeds are checked and improve returns bijections
            for i in range(done, size):
                self.place(self.intern(np.argsort(self.stack[i])))
            stack = self.stack[:size]
            # the new pairs in row-major order, one gather per row
            for i in range(size):
                for row in stack[i][stack[done if i < done else 0 :]]:
                    self.place(self.improved_row(row))
            done = size


class _Representatives:
    """The final representatives, ids ``ids`` of ``closure``, and the final
    index of every id located so far.  Raises HypothesisViolation when two of
    them lie within 4n/5."""

    def __init__(self, closure: _Closure, ids: list[int]):
        self.closure = closure
        self.ids = np.array(ids, dtype=np.int64)
        self.stack = closure.pool[self.ids]
        n = closure.n
        close = _pairwise(self.stack, lambda d: 5 * d <= 4 * n)[1]
        if close:
            i, j, d = close[0]
            raise HypothesisViolation(
                f"representatives {i} and {j} lie at distance {d} <= 4n/5 ({_thresholds(n)})"
            )
        self.index = {i: idx for idx, i in enumerate(ids)}

    def locate(self, i: int) -> int:
        """Final index of the cluster of map ``i``.  A representative lies
        farther than 4n/5 from every other one, so ``_locate`` would return
        its own index without raising; other maps go through ``_locate`` once."""
        idx = self.index.get(i)
        if idx is None:
            idx = _locate(self.stack, self.closure.pool[i])
            if idx is None:
                raise HypothesisViolation("map lies within n/5 of 0 representatives")
            self.index[i] = idx
        return idx

    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """The table and the k x k ids P of the improved products of all
        pairs of representatives, improved and located in row-major order."""
        k = len(self.ids)
        table = np.empty((k, k), dtype=np.int64)
        prods = np.empty((k, k), dtype=np.int64)
        for i in range(k):
            for j, row in enumerate(self.stack[i][self.stack]):
                prods[i, j] = p = self.closure.improved_row(row)
                table[i, j] = self.locate(p)
        return table, prods


def _check_associativity_inequality(reps: _Representatives, table: np.ndarray, prods: np.ndarray) -> int:
    """Verify d(a(bc), (ab)c) <= 4n/5 for every triple of representatives.

    a(bc) is the improvement of reps[a] . P[b, c] and (ab)c that of
    P[a, b] . reps[c], with P = ``prods``.  The index identities of the module
    docstring answer the inputs whose product is its representative.  The
    others go through the closure's memo in one batch per ``a``, left inputs
    then right ones, each in row-major order, so the first failing
    improvement and the lexicographically first failing triple, which raises
    HypothesisViolation, are those of a scan over all 2k^3 inputs.  Returns
    the number of improvements the index identities answered.
    """
    closure = reps.closure
    k, n = reps.stack.shape
    exact = prods == reps.ids[table]
    inexact_rows = closure.pool[prods[~exact]]  # P[b, c] where not exact, row-major
    answered = 0
    for a in range(k):
        left = prods[a][table]  # a(bc) where exact[b, c]
        right = prods[table[a]]  # (ab)c where exact[a, b]
        lefts = reps.stack[a][inexact_rows]
        rights = closure.pool[prods[a][~exact[a]]][:, reps.stack].reshape(-1, n)
        new = closure.improved_rows(np.concatenate([lefts, rights]))
        answered += 2 * k * k - len(new)
        left[~exact] = new[: len(lefts)]
        right[~exact[a]] = new[len(lefts) :].reshape(-1, k)
        dist = np.zeros((k, k), dtype=np.int64)  # equal ids are equal maps
        b, c = np.nonzero(left != right)
        left, right, pool = left[b, c], right[b, c], closure.pool
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
    and the inequality work on map ids, as the module docstring describes,
    in O(k^2 n + k^3) time when every product is its representative.  Warnings of ``improve`` fire once per
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
    bound = closure_bound if closure_bound is not None else CLOSURE_FACTOR * len(seeds)
    closure = _Closure(g.n, _checked_improvement(g, delta, cfg), bound)
    closure.run(seeds)

    # canonical order and lex-min representatives, then one deterministic
    # rebuild of the table against the final representatives
    final_members = [sorted(mem, key=lambda i: closure.pool[i].tolist()) for mem in closure.members]
    final_members.sort(key=lambda mem: closure.pool[mem[0]].tolist())
    clusters = []
    for mem in final_members:
        maps = [VertexMap(closure.pool[i]) for i in mem]
        clusters.append(Cluster(maps[0], maps, delta))
    reps = _Representatives(closure, [mem[0] for mem in final_members])
    k = len(clusters)

    identity_index = reps.locate(closure.intern(VertexMap.identity(g.n).images))
    table, prods = reps.products()
    inverse_map = np.array(
        [reps.locate(closure.intern(invert(cl.representative).images)) for cl in clusters], dtype=np.int64
    )

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
    answered = _check_associativity_inequality(reps, table, prods)
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
    gamma_labels: list[str],
    f_words: list[Word],
    delta: float,
    cfg: ImprovementConfig,
) -> LefCertificate:
    """Finite multiplicative embedding of a word set, extracted from clusters.

    ``gamma_labels`` are symbol names of ``g``, closed under inverse.  Words
    over the complement labels act on the full graph; their defects are
    measured on the gamma-labeled subgraph only.  The certificate succeeds
    when all pairwise products land in pairwise distinct clusters and cluster
    multiplication matches word concatenation.
    """
    _check_delta(delta)
    if not f_words:
        raise ValueError("word list must be nonempty")
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
        idx = _locate(stack, m.images)
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
