"""Finite, regularly edge-labeled graphs stored as one permutation per symbol.

A graph on vertices ``0..n-1`` carries, for every generator symbol ``s``, a
permutation ``action(s)`` with ``action(s)[x] = s.x``.  Symbols come in
inverse pairs (a symbol may be its own inverse), and paired symbols must act
by mutually inverse permutations.  Undirected edges are derived as unordered
pairs ``{x, s.x}``; two labels joining the same endpoints count as parallel
edges, and loops are represented but never contribute to boundaries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    GeneratorSetMismatch,
    InvalidGraphFile,
    InvalidTable,
    InversePairMismatch,
    LengthMismatch,
    NotAPermutation,
    NotInverseClosed,
    UnknownSymbol,
)

GRAPH_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GeneratorSet:
    """Ordered generator symbols with an involutive inverse pairing."""

    symbols: tuple[str, ...]
    inverse: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("generator names must be unique")
        if len(self.inverse) != len(self.symbols):
            raise ValueError("inverse pairing must cover every symbol")
        for i, j in enumerate(self.inverse):
            if not 0 <= j < len(self.symbols) or self.inverse[j] != i:
                raise ValueError("inverse pairing is not an involution")

    @classmethod
    def from_pairs(cls, pairs):
        """Build from ``(name, inverse_name)`` pairs; use ``name == inverse_name``
        for self-inverse symbols."""
        symbols: list[str] = []
        inv_name: dict[str, str] = {}
        for a, b in pairs:
            for name in (a, b):
                if name not in symbols:
                    symbols.append(name)
            inv_name[a] = b
            inv_name[b] = a
        index = {s: i for i, s in enumerate(symbols)}
        return cls(tuple(symbols), tuple(index[inv_name[s]] for s in symbols))

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise UnknownSymbol(f"unknown generator symbol {symbol!r}") from None

    def inverse_symbol(self, symbol: str) -> str:
        return self.symbols[self.inverse[self.index(symbol)]]

    def pair_representatives(self) -> list[int]:
        """One symbol index per inverse pair (self-inverse symbols included once)."""
        return [i for i, j in enumerate(self.inverse) if i <= j]

    def __len__(self):
        return len(self.symbols)


class VertexSet:
    """Subset of ``0..n-1`` with bit-set semantics and cached cardinality."""

    __slots__ = ("mask", "cardinality")

    def __init__(self, mask):
        mask = np.array(mask, dtype=bool)
        mask.setflags(write=False)
        self.mask = mask
        self.cardinality = int(mask.sum())

    @classmethod
    def from_indices(cls, n: int, indices) -> "VertexSet":
        mask = np.zeros(n, dtype=bool)
        mask[list(indices)] = True
        return cls(mask)

    @classmethod
    def empty(cls, n: int) -> "VertexSet":
        return cls(np.zeros(n, dtype=bool))

    @property
    def n(self) -> int:
        return self.mask.size

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)

    def __contains__(self, v) -> bool:
        return bool(self.mask[v])

    def __eq__(self, other) -> bool:
        return isinstance(other, VertexSet) and np.array_equal(self.mask, other.mask)

    def __repr__(self):
        return f"VertexSet({self.indices().tolist()} of {self.n})"


class LabeledGraph:
    """Immutable regularly labeled graph; build through :func:`make_labeled_graph`."""

    __slots__ = ("n", "gens", "actions")

    def __init__(self, n: int, gens: GeneratorSet, actions: np.ndarray):
        actions = np.ascontiguousarray(actions, dtype=np.int64)
        actions.setflags(write=False)
        self.n = n
        self.gens = gens
        self.actions = actions

    def action(self, symbol: str) -> np.ndarray:
        return self.actions[self.gens.index(symbol)]

    @property
    def degree(self) -> int:
        return len(self.gens)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledGraph)
            and self.n == other.n
            and self.gens == other.gens
            and np.array_equal(self.actions, other.actions)
        )

    def __repr__(self):
        return f"LabeledGraph(n={self.n}, symbols={list(self.gens.symbols)})"


def make_labeled_graph(n: int, gens: GeneratorSet, actions) -> LabeledGraph:
    """Validate one permutation per symbol and the inverse-pairing contract."""
    if len(actions) != len(gens):
        raise LengthMismatch(f"expected {len(gens)} permutations, got {len(actions)}")
    arr = np.empty((len(gens), n), dtype=np.int64)
    for i, perm in enumerate(actions):
        p = np.asarray(perm, dtype=np.int64)
        if p.shape != (n,):
            raise LengthMismatch(
                f"action of {gens.symbols[i]!r} has length {p.size}, expected {n}"
            )
        if p.size and (p.min() < 0 or p.max() >= n or np.bincount(p, minlength=n).max() > 1):
            raise NotAPermutation(f"action of {gens.symbols[i]!r} is not a permutation")
        arr[i] = p
    for i, j in enumerate(gens.inverse):
        if i <= j and not np.array_equal(arr[j][arr[i]], np.arange(n)):
            raise InversePairMismatch(
                f"action of {gens.symbols[j]!r} is not the inverse of {gens.symbols[i]!r}"
            )
    return LabeledGraph(n, gens, arr)


def _check_table(table: np.ndarray) -> tuple[int, np.ndarray]:
    """Validate a multiplication table; return (identity element, inverse array)."""
    m = table.shape[0]
    if table.ndim != 2 or table.shape != (m, m):
        raise InvalidTable("multiplication table must be square")
    if m == 0:
        raise InvalidTable("empty table")
    if table.min() < 0 or table.max() >= m:
        raise InvalidTable("table entries out of range")
    ident_row = np.arange(m)
    for i in range(m):
        if np.bincount(table[i], minlength=m).max() > 1 or np.bincount(table[:, i], minlength=m).max() > 1:
            raise InvalidTable("table is not a latin square")
    identity = None
    for e in range(m):
        if np.array_equal(table[e], ident_row) and np.array_equal(table[:, e], ident_row):
            identity = e
            break
    if identity is None:
        raise InvalidTable("table has no two-sided identity")
    inv = np.full(m, -1, dtype=np.int64)
    for a in range(m):
        hits = np.flatnonzero(table[a] == identity)
        if hits.size != 1 or table[hits[0], a] != identity:
            raise InvalidTable("table has an element without a two-sided inverse")
        inv[a] = hits[0]
    if m <= 256:
        # (a*b)*c == a*(b*c) for all triples, vectorized one row at a time;
        # m^3 work, so larger tables are trusted.
        for a in range(m):
            if not np.array_equal(table[table[a]], table[a][table]):
                raise InvalidTable("table is not associative")
    return identity, inv


def cayley_graph(mult_table, gen_indices, symbol_names: list[str] | None = None) -> LabeledGraph:
    """Left-multiplication Cayley graph of a finite group given by its table.

    Vertices are the group elements; the symbol for generator ``s`` acts by
    ``x -> s*x``.  ``gen_indices`` must be closed under group inverse.
    Connectivity is not required (and not checked here).  Associativity is
    checked for tables of at most 256 elements.
    """
    table = np.asarray(mult_table, dtype=np.int64)
    m = table.shape[0]
    _, inv = _check_table(table)
    gen_indices = list(gen_indices)
    outside = [g for g in gen_indices if not 0 <= g < m]
    if outside:
        raise InvalidTable(f"generator elements {outside} outside 0..{m - 1}")
    if len(set(gen_indices)) != len(gen_indices):
        raise InvalidTable("duplicate generator elements")
    missing = [g for g in gen_indices if inv[g] not in gen_indices]
    if missing:
        raise NotInverseClosed(f"generators {missing} lack their inverses")
    if symbol_names is None:
        symbol_names = [f"g{g}" for g in gen_indices]
    by_elem = dict(zip(gen_indices, symbol_names))
    gens = GeneratorSet(
        tuple(symbol_names),
        tuple(symbol_names.index(by_elem[int(inv[g])]) for g in gen_indices),
    )
    actions = [table[g] for g in gen_indices]  # row g is x -> g*x
    return make_labeled_graph(m, gens, actions)


def product_graph(g: LabeledGraph, h: LabeledGraph) -> LabeledGraph:
    """Diagonal product: vertex (x, y) -> x*|V(h)| + y, s.(x, y) = (s.x, s.y).

    Kept as an oracle: with :func:`graph_of_map` it is what the tests compare
    ``smooth``, ``prefix_boundary_counts`` and ``defect_of_map`` against."""
    if g.gens != h.gens:
        raise GeneratorSetMismatch("factors must share the same generator set")
    nh = h.n
    actions = [
        (pg[:, None] * nh + ph[None, :]).ravel()
        for pg, ph in zip(g.actions, h.actions)
    ]
    return LabeledGraph(g.n * nh, g.gens, np.array(actions))


def edge_slots(g: LabeledGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undirected labeled edges, loops excluded, as (u, v, pair_symbol) arrays.

    One slot per edge of the disjoint union of the generator graphs: a proper
    inverse pair contributes the full graph of its permutation (so a 2-cycle
    of a non-self-inverse symbol yields two parallel slots), a self-inverse
    symbol contributes each unordered pair once.
    """
    ident = np.arange(g.n)
    us, vs, syms = [], [], []
    for i in g.gens.pair_representatives():
        p = g.actions[i]
        if g.gens.inverse[i] == i:
            keep = ident < p
        else:
            keep = ident != p
        us.append(ident[keep])
        vs.append(p[keep])
        syms.append(np.full(int(keep.sum()), i, dtype=np.int64))
    if not us:
        z = np.zeros(0, dtype=np.int64)
        return z, z, z
    return np.concatenate(us), np.concatenate(vs), np.concatenate(syms)


def boundary(g: LabeledGraph, s: VertexSet) -> tuple[int, list[tuple[int, int, str]]]:
    """Count undirected labeled edges with exactly one endpoint in ``s``.

    Loops never contribute; parallel labels count once each.
    """
    if s.n != g.n:
        raise LengthMismatch(f"vertex set over {s.n} vertices, graph has {g.n}")
    u, v, sym = edge_slots(g)
    crossing = s.mask[u] != s.mask[v]
    edges = [
        (int(a), int(b), g.gens.symbols[int(k)])
        for a, b, k in zip(u[crossing], v[crossing], sym[crossing])
    ]
    return len(edges), edges


def loop_count(g: LabeledGraph) -> int:
    ident = np.arange(g.n)
    total = 0
    for i in g.gens.pair_representatives():
        total += int(np.count_nonzero(g.actions[i] == ident))
    return total


def is_simple(g: LabeledGraph) -> bool:
    """No loops and no parallel edges: all images of each vertex distinct and proper."""
    if g.n == 0 or len(g.gens) == 0:
        return True
    cols = np.vstack([g.actions, np.arange(g.n)[None, :]])
    cols = np.sort(cols, axis=0)
    return not np.any(cols[1:] == cols[:-1])


def connected_components(g: LabeledGraph) -> tuple[int, np.ndarray]:
    """Number of components and per-vertex labels, numbered by smallest vertex.

    Each round hooks every root onto the smallest root across its edges and
    pointer jumping flattens the trees; the number of trees at least halves.
    """
    u, v, _ = edge_slots(g)
    parent = np.arange(g.n)
    while True:
        ru, rv = parent[u], parent[v]
        hooked = parent.copy()
        np.minimum.at(hooked, np.maximum(ru, rv), np.minimum(ru, rv))
        jumped = hooked[hooked]
        while not np.array_equal(jumped, hooked):
            hooked, jumped = jumped, jumped[jumped]
        if np.array_equal(hooked, parent):
            break
        parent = hooked
    roots, labels = np.unique(parent, return_inverse=True)
    return int(roots.size), labels


def is_connected(g: LabeledGraph) -> bool:
    count, _ = connected_components(g)
    return count <= 1


def restrict_labels(g: LabeledGraph, subset: GeneratorSet) -> LabeledGraph:
    """Keep only the actions of ``subset``; the subset must be inverse-closed."""
    positions = [g.gens.index(s) for s in subset.symbols]
    for i, s in enumerate(subset.symbols):
        if g.gens.inverse_symbol(s) != subset.symbols[subset.inverse[i]]:
            raise NotInverseClosed(
                f"symbol {s!r} pairs with {g.gens.inverse_symbol(s)!r} in the host graph"
            )
    return LabeledGraph(g.n, subset, g.actions[positions] if positions else np.zeros((0, g.n), np.int64))


def subset_of_generators(g: LabeledGraph, names) -> GeneratorSet:
    """Inverse-closed GeneratorSet for the given symbol names of ``g``."""
    names = list(names)
    for s in names:
        g.gens.index(s)
        if g.gens.inverse_symbol(s) not in names:
            raise NotInverseClosed(f"{s!r} is listed without its inverse")
    index = {s: i for i, s in enumerate(names)}
    return GeneratorSet(tuple(names), tuple(index[g.gens.inverse_symbol(s)] for s in names))


class RootedBall:
    """Canonically numbered ball: BFS from the root in fixed generator order.

    ``actions[i][j]`` is the local index of ``s_i . v_j`` or ``-1`` when the
    target lies outside the ball, so equality of the arrays is exactly
    root-preserving label-respecting isomorphism of the induced subgraphs.
    """

    __slots__ = ("gens", "radius", "size", "actions", "tree_parents", "tree_symbols")

    def __init__(self, gens, radius, size, actions, tree_parents, tree_symbols):
        self.gens = gens
        self.radius = radius
        self.size = size
        self.actions = actions
        self.tree_parents = tree_parents
        self.tree_symbols = tree_symbols


def rooted_ball(g: LabeledGraph, v: int, r: int) -> RootedBall:
    if r < 0:
        raise ValueError("radius must be >= 0")
    if not 0 <= v < g.n:
        raise ValueError(f"root {v} out of range")
    local = {v: 0}
    order = [v]
    parents: list[int] = []
    symbols: list[int] = []
    frontier = [v]
    k = len(g.gens)
    for _ in range(r):
        nxt = []
        for u in frontier:
            ju = local[u]
            for i in range(k):
                w = int(g.actions[i][u])
                if w not in local:
                    local[w] = len(order)
                    order.append(w)
                    parents.append(ju)
                    symbols.append(i)
                    nxt.append(w)
        frontier = nxt
    m = len(order)
    acts = np.full((k, m), -1, dtype=np.int64)
    for i in range(k):
        row = g.actions[i]
        for j, u in enumerate(order):
            acts[i][j] = local.get(int(row[u]), -1)
    acts.setflags(write=False)
    return RootedBall(
        g.gens, r, m, acts,
        np.asarray(parents, dtype=np.int64), np.asarray(symbols, dtype=np.int64),
    )


def rooted_ball_isomorphic(b1: RootedBall, b2: RootedBall) -> bool:
    """Label-respecting root-preserving isomorphism via canonical-form equality.

    Kept as the isomorphism test that :class:`RootedBall`'s canonical
    numbering promises: equal arrays exactly when the balls are isomorphic."""
    return (
        b1.gens == b2.gens
        and b1.size == b2.size
        and np.array_equal(b1.actions, b2.actions)
    )


def ball_images(g: LabeledGraph, reference: RootedBall, roots) -> np.ndarray:
    """``images[r, t]``: the end of the reference's tree path to its vertex t,
    walked in ``g`` from ``roots[r]``; int64, ``(len(roots), reference.size)``."""
    images = np.empty((len(roots), reference.size), dtype=np.int64)
    images[:, 0] = roots
    for t in range(1, reference.size):
        images[:, t] = g.actions[reference.tree_symbols[t - 1]][images[:, reference.tree_parents[t - 1]]]
    return images


def good_vertices(g: LabeledGraph, reference: RootedBall) -> VertexSet:
    """Vertices v whose ``reference.radius``-ball matches the reference ball:
    the reference's tree paths walked from v (1) reach distinct vertices,
    (2) reproduce every in-ball edge and (3) send every edge leaving the
    reference ball outside them.  For a ball covering a connected graph (3)
    is vacuous, and the good vertices are the images of the root under label
    automorphisms ((1): a bijection, (2): it commutes with every action).

    There (2) implies (1), so (1) is not checked when the reference has no
    edge leaving it, m = n and ``g`` is connected.  Proof: with no leaving
    edge, (2) says ``s.w[t] = w[s.t]`` for every symbol s and every ball
    vertex t, where ``w[t]`` is the end of the tree path to t walked from v.
    So the image set ``{w[t]}`` is closed under every action, hence, the
    symbols being closed under inverses, a union of connected components:
    all n vertices of a connected ``g``.  Reached by m = n walks, the n
    vertices are reached once each, which is (1).

    Memory: ~9 bytes per (vertex, ball vertex) pair there, ~17 where (1)
    needs its sorted copy of the images, 24 if (3) has edges."""
    if g.gens != reference.gens:
        raise GeneratorSetMismatch("reference ball uses a different generator set")
    n, m, k = g.n, reference.size, len(g.gens)
    if n == 0 or m > n:
        return VertexSet.empty(n)
    vert = ball_images(g, reference, np.arange(n))
    good = np.ones(n, dtype=bool)
    leaving = np.argwhere(reference.actions < 0)
    # (1) the tree reaches m distinct vertices, unless (2) implies it as above
    if leaving.size or m < n or not is_connected(g):
        srt = np.sort(vert, axis=1)  # also the keys of (3)
        if m > 1:
            good &= ~np.any(srt[:, 1:] == srt[:, :-1], axis=1)
    # (2) every in-ball edge of the reference is reproduced
    for i in range(k):
        row = g.actions[i]
        ref_row = reference.actions[i]
        for j in np.flatnonzero(ref_row >= 0):
            good &= row[vert[:, j]] == vert[:, ref_row[j]]
    # (3) edges leaving the reference ball leave the candidate ball too
    if leaving.size:
        flat = (srt + (np.arange(n)[:, None] * np.int64(n))).ravel()
        offsets = np.arange(n) * np.int64(n)
        for i, j in leaving:
            keys = offsets + g.actions[i][vert[:, j]]
            pos = np.minimum(np.searchsorted(flat, keys), flat.size - 1)
            good &= flat[pos] != keys
    return VertexSet(good)


def serialize_graph(g: LabeledGraph) -> str:
    """Canonical text form: generators sorted by name, fixed JSON layout."""
    order = sorted(range(len(g.gens)), key=lambda i: g.gens.symbols[i])
    doc = {
        "format_version": GRAPH_FORMAT_VERSION,
        "n": g.n,
        "generators": [
            {
                "name": g.gens.symbols[i],
                "inverse": g.gens.symbols[g.gens.inverse[i]],
                "perm": g.actions[i].tolist(),
            }
            for i in order
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def _is_perm_list(perm, n: int) -> bool:
    """A JSON list of ``n`` integers in ``0..n-1`` (JSON booleans excluded)."""
    return (
        isinstance(perm, list)
        and len(perm) == n
        and set(map(type, perm)) <= {int}
        and (n == 0 or (min(perm) >= 0 and max(perm) < n))
    )


def parse_table(text: str) -> tuple[np.ndarray, list[int]]:
    """Table file ``{"table": [[...], ...], "generators": [...]}``: a nonempty
    square table whose rows list m integers in 0..m-1, and an optional list of
    generator elements.  Anything else raises :class:`InvalidTable`; group
    axioms and generator ranges are checked by :func:`cayley_graph`."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidTable(f"table file is not JSON: {exc}") from None
    if not isinstance(doc, dict) or "table" not in doc:
        raise InvalidTable('table file must be a JSON object with a "table" entry')
    rows = doc["table"]
    m = len(rows) if isinstance(rows, list) else 0
    if m == 0 or not all(_is_perm_list(r, m) for r in rows):
        raise InvalidTable('"table" must be a nonempty square list of rows of integers in 0..m-1')
    gens = doc.get("generators", [])
    if not isinstance(gens, list) or not set(map(type, gens)) <= {int}:
        raise InvalidTable('"generators" must be a list of integers')
    return np.array(rows, dtype=np.int64), gens


def parse_graph(text: str) -> LabeledGraph:
    """Inverse of :func:`serialize_graph`.

    A document that is not a graph object of the current format raises
    :class:`InvalidGraphFile`; one that is well formed but not a labeled graph
    raises the error of :func:`make_labeled_graph`.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InvalidGraphFile(f"graph file is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise InvalidGraphFile("graph file must hold a JSON object")
    if doc.get("format_version") != GRAPH_FORMAT_VERSION:
        raise InvalidGraphFile(f"unsupported format_version {doc.get('format_version')!r}")
    n = doc.get("n")
    if type(n) is not int or not 0 <= n <= np.iinfo(np.intp).max // 8:  # one int64 row per symbol
        raise InvalidGraphFile(f'"n" must be a non-negative integer of addressable size, got {n!r}')
    gen_docs = doc.get("generators")
    if not isinstance(gen_docs, list) or not all(isinstance(d, dict) for d in gen_docs):
        raise InvalidGraphFile('"generators" must be a list of objects')
    for d in gen_docs:
        if not isinstance(d.get("name"), str) or not isinstance(d.get("inverse"), str):
            raise InvalidGraphFile('every generator needs a string "name" and "inverse"')
        if not _is_perm_list(d.get("perm"), n):
            raise InvalidGraphFile(f'"perm" of {d["name"]!r} must list n integers in 0..n-1')
    perm_by_name = {d["name"]: d["perm"] for d in gen_docs}
    if len(perm_by_name) != len(gen_docs):
        raise InvalidGraphFile("duplicate generator names")
    unlisted = sorted({d["inverse"] for d in gen_docs} - perm_by_name.keys())
    if unlisted:
        raise InvalidGraphFile(f"inverse symbols {unlisted} have no generator entry")
    try:
        gens = GeneratorSet.from_pairs([(d["name"], d["inverse"]) for d in gen_docs])
    except ValueError as exc:
        raise InvalidGraphFile(str(exc)) from None
    return make_labeled_graph(n, gens, [perm_by_name[s] for s in gens.symbols])
