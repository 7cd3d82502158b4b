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
input raises again each time it is requested.  The memo holds one map of n
ints per distinct input: 24 for Cay(S4), at most k^2 + 2k^3 for k clusters.
Warnings of ``improve`` (such as "graph of the map misses
the good set") fire once per distinct input, not once per request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .almost_auto import (
    ImprovementConfig,
    ImprovementWorkspace,
    VertexMap,
    compose,
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
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            d = hamming(maps[i], maps[j])
            if thr < d < n - thr:
                violations.append((i, j, d))
    return DichotomyReport(n, thr, len(maps) * (len(maps) - 1) // 2, violations)


@dataclass
class Cluster:
    representative: VertexMap  # lexicographically smallest member
    members: list[VertexMap]
    delta: float


def _pairwise_hamming(maps: list[VertexMap]) -> np.ndarray:
    stack = np.stack([m.images for m in maps])
    return (stack[:, None, :] != stack[None, :, :]).sum(axis=2)


def cluster_maps(g: LabeledGraph, delta: float, maps: list[VertexMap]) -> list[Cluster]:
    """Partition delta-almost automorphisms by the distance-n/5 relation.

    Transitivity is verified rather than assumed: any pairwise distance in
    (n/5, 4n/5] breaks the dichotomy hypotheses and raises StructureViolation.
    """
    maps = list(maps)
    _check_delta_maps(g, delta, maps, require_bijective=True)
    if not maps:
        return []
    n = g.n
    dist = _pairwise_hamming(maps)
    gap = []
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            d = int(dist[i, j])
            if n < 5 * d <= 4 * n:
                gap.append((i, j, d))
    if gap:
        raise StructureViolation(
            f"{len(gap)} pairwise distances in (n/5, 4n/5]", violations=gap
        )
    parent = list(range(len(maps)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            if 5 * dist[i, j] <= n:
                parent[find(i)] = find(j)
    groups: dict[int, list[VertexMap]] = {}
    for i in range(len(maps)):
        groups.setdefault(find(i), []).append(maps[i])
    clusters = []
    for members in groups.values():
        members = sorted(members, key=lambda m: m.key())
        for a in members:
            if 5 * hamming(a, members[0]) > n:
                raise StructureViolation(
                    "transitive closure linked maps farther than n/5 apart",
                    violations=[(0, 0, hamming(a, members[0]))],
                )
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
    dist = np.count_nonzero(reps != m.images, axis=1)
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
    improve_requests: int  # improvements asked of the closure memo
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
        self.by_key: dict[tuple, int] = {}
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

    def improved(self, m: VertexMap) -> VertexMap:
        self.requests += 1
        return self._improved(m.images.tobytes())

    def improved_rows(self, rows: np.ndarray) -> np.ndarray:
        """Improvements of the rows of an (r, n) image array, deduplicated
        through the memo's byte keys."""
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        keys = rows.view(np.dtype((np.void, rows.shape[1] * 8))).ravel().tolist()
        self.requests += len(keys)
        slot = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        distinct = np.stack([self._improved(key).images for key in slot])
        return distinct[[slot[key] for key in keys]]

    def place(self, m: VertexMap) -> int:
        key = m.key()
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
        done_products: set[tuple[int, int]] = set()
        done_inverses: set[int] = set()
        while True:
            self.rounds += 1
            size = len(self.reps)
            todo_inv = [i for i in range(size) if i not in done_inverses]
            for i in todo_inv:
                self.place(invert(self.reps[i]))
                done_inverses.add(i)
            todo = [
                (i, j)
                for i in range(size)
                for j in range(size)
                if (i, j) not in done_products
            ]
            for i, j in todo:
                self.place(self.improved(compose(self.reps[i], self.reps[j])))
                done_products.add((i, j))
            if len(self.reps) == size and not todo and not todo_inv:
                break


def _check_associativity_inequality(reps: np.ndarray, products: np.ndarray, improve_rows) -> None:
    """Verify d(a(bc), (ab)c) <= 4n/5 for every triple of representatives.

    ``reps`` is the k x n representative stack, ``products[i, j]`` the
    improved product of representatives i and j (a k x k x n array) and
    ``improve_rows`` maps an (r, n) image array to its improvements.  One
    batch of 2k^2 maps per ``a``; the lexicographically first failing triple
    raises HypothesisViolation.
    """
    k, n = reps.shape
    for a in range(k):
        left = reps[a][products]  # [b, c] = a . (bc)
        right = products[a][:, reps]  # [b, c] = (ab) . c
        both = improve_rows(np.concatenate([left, right]).reshape(2 * k * k, n))
        dist = np.count_nonzero(both[: k * k] != both[k * k :], axis=-1)
        failing = np.flatnonzero(5 * dist > 4 * n)
        if failing.size:
            b, c = divmod(int(failing[0]), k)
            raise HypothesisViolation(
                f"associativity inequality fails on triple {(a, b, c)} "
                f"(distance {dist[failing[0]]} > 4n/5; {_thresholds(n)})"
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
    distance may fall in (n/5, 4n/5].  The associativity inequality
    d(a(bc), (ab)c) <= 4n/5 is verified for all representative triples, and
    the table itself must be exactly associative.

    Every improvement goes through one memo that lives for this call only, so
    ``improve`` runs once per distinct input map (exact, because ``improve``
    is deterministic for the fixed graph, config and workspace).  The memo
    holds one map per distinct input: at most k^2 + 2k^3 maps of n ints for
    k clusters, 24 on Cay(S4).  Warnings of ``improve`` fire once per
    distinct input.  The result counts the requests, the actual ``improve``
    calls and the closure rounds.
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
    reps = [cl.representative for cl in clusters]
    stack = np.stack([rep.images for rep in reps])
    k = len(reps)
    n = g.n

    def locate(m: VertexMap) -> int:
        idx = _locate(stack, m)
        if idx is None:
            raise HypothesisViolation("map lies within n/5 of 0 representatives")
        return idx

    identity_index = locate(VertexMap.identity(n))
    table = np.empty((k, k), dtype=np.int64)
    products = np.empty((k, k, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            prod = closure.improved(compose(reps[i], reps[j]))
            products[i, j] = prod.images
            table[i, j] = locate(prod)
    inverse_map = np.array([locate(invert(rep)) for rep in reps], dtype=np.int64)

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
    _check_associativity_inequality(stack, products, closure.improved_rows)
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
