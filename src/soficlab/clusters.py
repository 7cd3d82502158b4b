"""Hamming-distance geometry of almost automorphisms.

Close maps (distance at most n/5) cluster together; the dichotomy forbids the
middle band, so clustering is an equivalence.  Products of representatives,
pushed back to small defect by the improvement pipeline, turn the clusters
into a finite group, and a multiplicative embedding of a finite word set into
that group is exactly a LEF certificate.

"Which cluster is this map in" has one answer, ``_locate`` against a stack
of representatives.  The closure asks it when it places a map; the final
representatives ask it for the identity, the table's products, the
inverses and, last, each seed, which gives ``ClusterGroup.seed_clusters``.
``lef_certificate`` passes its word maps as the seeds and reads their
clusters from there.

Distance thresholds are compared in exact integer arithmetic
(``5*d <= n`` for "within n/5" and ``n < 5*d <= 4*n`` for the forbidden band).

Every distinct map that one ``cluster_group`` call meets (seeds, inverses and
improvements) is interned once as an integer id, its row in the closure's
``pool``; clusters are lists of ids and each id caches its cluster.  Every
improvement asked for is that of a product pool[i] . pool[j], and the same
few are asked for many times (28,800 requests on 24 distinct inputs for
Cay(S4)).  ``_Closure.product(i, j)`` answers from a pair table over ids, -1
until asked; a miss gathers the product once and looks its bytes up in a
memo of checked improvements, so ``improve`` runs at most once per distinct
input, and not at all for an exact automorphism of a graph whose vertices
are all good: that is a fixed point of ``improve`` (proof at
``_checked_improvement``) and comes back unchanged without the call.
Both are exact: ``improve`` is deterministic for a fixed graph, config and
workspace, and all three are fixed for one ``_Closure``, i.e. one
``cluster_group`` call.  Only improvements that passed both hypothesis checks
are stored, so a failing input raises again each time it is requested, and
warnings of ``improve`` fire once per distinct input, not once per request.

The table and the associativity inequality work on ids.  Write P[i, j] for
the id of the improved product of representatives i and j and t for the
table.  Where P[b, c] is the id of representative t[b, c], the input of
a.(bc) is the product input of (a, t[b, c]), so its improvement is
P[a, t[b, c]] without asking the closure; likewise (ab).c is
P[t[a, b], c] where P[a, b] is the id of its representative.  Equal ids are
the same map, at distance 0; only pairs of differing ids are compared row by
row, so no k x k x n array is formed.  The pool holds n int64 per distinct
map: the seeds, the inverses of the closure's and of the final
representatives (at most 2k), the identity and the distinct improvements.
Its row capacity r doubles as it fills; the pair table beside it holds r^2
int32, on Cay(S6) (720 maps on 720 vertices, r = 1024) 4 MB beside the
pool's 5.6 MB.  The memo keys hold n int64 per distinct input: at most
2k^2 + 2km for k clusters, m of whose k^2 products are not their
representative (closure products, table products and the inequality's
inputs).  On Cay(S4) the memo and the pool hold 24 each; on the pinned
corrupted Cay(S4) document the memo holds 611 and the pool 40.
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
    MultiplicativityFailure,
    NonPositiveCheeger,
    NotBijective,
)
from .groups import is_associative
from .sofic import Word, word_action

CLOSURE_FACTOR = 10


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
    # a NaN delta would make every ``bad > delta * n`` check pass, a negative
    # one would fail it even at 0 bad edges
    if not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and >= 0, got {delta}")


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
        violations = _pairwise(np.stack([m.images for m in maps]), lambda d: (thr < d) & (d < n - thr))
    return DichotomyReport(n, thr, len(maps) * (len(maps) - 1) // 2, violations)


@dataclass
class Cluster:
    representative: VertexMap  # lexicographically smallest member


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


def _pairwise(stack: np.ndarray, in_band) -> list[tuple[int, int, int]]:
    """The pairs (i, j, d) of rows of ``stack``, i < j in row-major order,
    whose distance d satisfies the vectorised predicate ``in_band``."""
    dist = _distances(stack, stack)
    i, j = np.nonzero(np.triu(in_band(dist), 1))
    return list(zip(i.tolist(), j.tolist(), dist[i, j].tolist()))


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
    """The finite group of clusters: lex-ordered representatives, their
    product table, the identity and inverses, the improvement counters and
    the cluster of each seed map (``seed_clusters``, which ``as_dict``
    leaves out)."""

    clusters: list[Cluster]
    table: np.ndarray
    identity_index: int
    inverse_map: np.ndarray
    delta: float
    # improvements the algorithm consumed, whether an improve call, the pair
    # table, the memo or an index identity of the table answered them: 2k^3 + 2k^2
    improve_requests: int
    improve_calls: int  # memo misses, i.e. distinct inputs, fixed points included
    closure_rounds: int
    seed_clusters: list[int]  # cluster of each seed map, in seed order; not in as_dict

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
    A failing check raises HypothesisViolation.

    An exact automorphism on a graph whose vertices are all good is a fixed
    point of ``improve``, so it comes back unchanged, 0 bad edges and moved
    by 0, without calling ``improve``.  For such a bijection ``c`` (every
    vertex good, ``defect_of_map(g, c).boundary_of_graph == 0``) and any
    config:

    - The boundary is the number of pairs (s, x) with c(s.x) != s.c(x), so
      c commutes with every action and each P_s x P_s maps T = graph(c)
      onto itself; T is all n cells (x, c(x)), because every row is good.
    - A smoothing step gives a cell (x, y) the sum of the walk counts of
      its k neighbours (s.x, s.y).  On T they all lie in T; off T none
      does, since s.y = c(s.x) = s.c(x) would give y = c(x).  So, by
      induction over the steps, step j counts k^j on T and 0 elsewhere, on
      the frontier and the dense path alike: the counts are
      k^steps chi_T, and the smoothing gap is 0 (k / k - 1 on T).
    - The descending order, ties by cell, puts the n cells of T first, in
      index order.  That prefix has boundary 0, so it is feasible for any
      alpha > 0, and it is the only prefix with symmetric difference 0 to
      T (a prefix of size j has j - n or n - j).  So the pick is U = T.
    - U is a permutation: nothing is trimmed and no pair is added, so the
      candidate's images are c's, with 0 bad edges, and it is not reverted.

    So ``improve`` returns c with ``hamming_moved == 0`` and
    ``final.bad_edges == 0``, and the checks below run on those numbers; a
    negative delta still fails the first.  The workspace's alpha is read
    only by ``improve``, so a closure of fixed points never runs
    ``lambda2``.
    """
    ws = ImprovementWorkspace(g, cfg)
    n = g.n
    all_good = ws.good.cardinality == n

    def improved(row: np.ndarray) -> np.ndarray:
        c = VertexMap(row)
        if all_good and c.bijective and defect_of_map(g, c).boundary_of_graph == 0:
            out, bad, moved = c.images, 0, 0
        else:
            result, trace = improve(g, c, cfg, workspace=ws)
            out, bad, moved = result.images, trace.final.bad_edges, trace.hamming_moved
        if bad > delta * n:
            raise HypothesisViolation(f"improvement left {bad} bad edges, above delta*n = {delta * n:g}")
        if 5 * moved > n:
            raise HypothesisViolation(
                f"improvement moved a composition by distance {moved} > n/5 ({_thresholds(n)})"
            )
        return out

    return improved


class _Closure:
    """Grows the cluster family until it is closed under product and inverse.

    Every distinct map gets one id, its row in ``pool``; clusters are lists
    of ids.  ``product(i, j)`` is the id of the checked improvement
    ``improved`` of pool[i] . pool[j], kept per pair of ids in ``pairs`` and
    per input in ``memo``; the module docstring says why that is exact.
    """

    def __init__(self, n: int, improved, bound: int):
        self.n = n
        self.improved = improved
        self.bound = bound
        self.pool = np.empty((16, n), dtype=np.int64)  # rows [0, len(ids)) are maps
        self.pairs = np.full((16, 16), -1, dtype=np.int32)  # (i, j) -> product(i, j), grown with pool
        self.ids: dict[bytes, int] = {}  # map bytes -> id
        self.memo: dict[bytes, int] = {}  # input bytes -> id of its checked improvement
        self.cluster: list[int] = []  # cluster of each id, -1 until placed
        self.members: list[list[int]] = []
        self.stack = np.empty((0, n), dtype=np.int64)  # first member of each cluster
        self.rounds = 0

    def intern(self, row: np.ndarray) -> int:
        """Id of the map with int64 images ``row``."""
        key = row.tobytes()
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ids)
            if i == len(self.pool):
                self.pool = np.concatenate([self.pool, np.empty_like(self.pool)])
                self.pairs = np.pad(self.pairs, (0, i), constant_values=-1)
            self.pool[i] = row
            self.cluster.append(-1)
        return i

    def product(self, i: int, j: int) -> int:
        """Id of the checked improvement of pool[i] . pool[j], the map
        x -> pool[i][pool[j][x]]."""
        p = self.pairs.item(i, j)
        if p < 0:
            key = self.pool[i][self.pool[j]].tobytes()
            p = self.memo.get(key)
            if p is None:
                p = self.memo[key] = self.intern(self.improved(np.frombuffer(key, dtype=np.int64)))
            self.pairs[i, j] = p
        return p

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

    def run(self, seeds: list[VertexMap]) -> list[int]:
        """Place the seeds and close their clusters; returns the seeds' ids."""
        seed_ids = [self.intern(m.images) for m in seeds]
        for i in seed_ids:
            self.place(i)
        done = 0  # inverses of clusters [0, done) and all their products are placed
        while True:
            self.rounds += 1
            size = len(self.members)
            if done == size:
                break
            # pool rows are bijections: seeds are checked and improve returns bijections
            for i in range(done, size):
                self.place(self.intern(np.argsort(self.stack[i])))
            first = [mem[0] for mem in self.members[:size]]  # the ids of stack[:size]
            # the new pairs in row-major order
            for i in range(size):
                for j in first[done if i < done else 0 :]:
                    self.place(self.product(first[i], j))
            done = size
        return seed_ids


class _Representatives:
    """The final representatives, ids ``ids`` of ``closure``, and the final
    index of every id located so far.  Raises HypothesisViolation when two of
    them lie within 4n/5."""

    def __init__(self, closure: _Closure, ids: list[int]):
        self.closure = closure
        self.ids = np.array(ids, dtype=np.int64)
        self.stack = closure.pool[self.ids]
        n = closure.n
        close = _pairwise(self.stack, lambda d: 5 * d <= 4 * n)
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
        ids = self.ids.tolist()
        table = np.empty((len(ids), len(ids)), dtype=np.int64)
        prods = np.empty_like(table)
        for i, a in enumerate(ids):
            for j, b in enumerate(ids):
                prods[i, j] = p = self.closure.product(a, b)
                table[i, j] = self.locate(p)
        return table, prods


def _check_associativity_inequality(reps: _Representatives, table: np.ndarray, prods: np.ndarray) -> None:
    """Verify d(a(bc), (ab)c) <= 4n/5 for every triple of representatives.

    a(bc) is the improvement of reps[a] . P[b, c] and (ab)c that of
    P[a, b] . reps[c], with P = ``prods``.  The index identities of the module
    docstring answer the inputs whose product is its representative.  For
    each ``a`` the others go through the closure's pair table, left inputs
    then right ones, each in row-major order, so the first failing
    improvement and the lexicographically first failing triple, which raises
    HypothesisViolation, are those of a scan over all 2k^3 inputs.
    """
    closure = reps.closure
    k, n = reps.stack.shape
    ids = reps.ids.tolist()
    exact = prods == reps.ids[table]
    inexact = prods[~exact].tolist()  # P[b, c] where not exact, row-major
    for a in range(k):
        left = prods[a][table]  # a(bc) where exact[b, c]
        right = prods[table[a]]  # (ab)c where exact[a, b]
        left[~exact] = [closure.product(ids[a], p) for p in inexact]
        rights = [closure.product(p, c) for p in prods[a][~exact[a]].tolist() for c in ids]
        right[~exact[a]] = np.reshape(rights, (-1, k))
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

    Last, each seed is located against the final representatives, which
    gives ``seed_clusters``.  A seed lies within n/5 of the first member of
    its closure cluster, and so does that cluster's lex-min member, its
    final representative; so the seed lies within 2n/5 of it, and either
    within n/5 or in the band (n/5, 4n/5], which raises HypothesisViolation.
    No pinned input reaches that case.

    Every improvement is that of a product of two map ids and goes through
    one pair table and one memo that live for this call only, so ``improve``
    runs at most once per distinct input map (exact, because ``improve`` is
    deterministic for the fixed graph, config and workspace), and not at all
    for the fixed points that ``_checked_improvement`` returns unchanged:
    exact automorphisms when every vertex is good, as with the automorphism
    seeds of a Cayley graph.  The table and the inequality work on map ids,
    as the module docstring describes, in O(k^2 n + k^3) time when every
    product is its representative.  Warnings
    of ``improve`` fire once per distinct input.

    Of the counters only ``closure_rounds`` is tallied.  The improvements
    consumed, however answered, are 2k^3 + 2k^2 for k clusters:
    ``_Closure.run`` asks ``product`` once per ordered pair of clusters (a
    round asks the pairs with a cluster new in it, and a round that adds no
    cluster ends the loop), the table asks the k^2 pairs of representatives,
    and the inequality consumes 2k^2 per representative, from the index
    identities or ``product``.  A memo miss stores its improvement or raises
    out of this function, so the distinct inputs (fixed points included)
    number ``len(closure.memo)``.
    """
    seeds = list(seed_maps)
    if not seeds:
        raise ValueError("seed_maps must be nonempty")
    _check_delta_maps(g, delta, seeds, require_bijective=True)
    bound = closure_bound if closure_bound is not None else CLOSURE_FACTOR * len(seeds)
    closure = _Closure(g.n, _checked_improvement(g, delta, cfg), bound)
    seed_ids = closure.run(seeds)

    # lex-min representatives in lexicographic order, then one deterministic
    # rebuild of the table against them
    def lex(i: int) -> list[int]:
        return closure.pool[i].tolist()

    rep_ids = sorted((min(mem, key=lex) for mem in closure.members), key=lex)
    clusters = [Cluster(VertexMap(closure.pool[i])) for i in rep_ids]
    reps = _Representatives(closure, rep_ids)
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
    if not is_associative(table, identity_index):
        raise HypothesisViolation("cluster multiplication table is not associative")
    _check_associativity_inequality(reps, table, prods)
    seed_clusters = [reps.locate(i) for i in seed_ids]
    return ClusterGroup(
        clusters,
        table,
        identity_index,
        inverse_map,
        delta,
        improve_requests=2 * k**3 + 2 * k**2,
        improve_calls=len(closure.memo),
        closure_rounds=closure.rounds,
        seed_clusters=seed_clusters,
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

    The word maps, of the words and of their pairwise concatenations, are
    the seeds of one ``cluster_group`` call, and each word's cluster is its
    map's entry of ``ClusterGroup.seed_clusters``.
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

    maps = []
    for letters in ff_letters:
        m = VertexMap(word_action(g, Word(letters, True)))
        bad = defect_of_map(g_gamma, m).bad_edges
        if bad > delta * g.n:
            raise DefectTooLarge(
                f"word {' '.join(letters) or '()'} has {bad} bad gamma edges, above delta*n"
            )
        maps.append(m)

    cg = cluster_group(g_gamma, delta, maps, cfg)
    cluster_of = dict(zip(ff_letters, cg.seed_clusters))
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
