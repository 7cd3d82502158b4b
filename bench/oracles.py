"""Independent checks of soficlab's outputs.

Nothing here calls soficlab: bad edges, boundaries, word actions and group
tables are recounted from the raw permutation arrays.  Every check returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np


def load_graph_file(path) -> tuple[list[str], dict[str, str], np.ndarray]:
    """(names, inverse name by name, actions) of a soficlab graph file."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    names = [d["name"] for d in doc["generators"]]
    inverse = {d["name"]: d["inverse"] for d in doc["generators"]}
    actions = np.array([d["perm"] for d in doc["generators"]], dtype=np.int64).reshape(len(names), doc["n"])
    return names, inverse, actions


def labeled_edges(names: list[str], inverse: dict[str, str], actions: np.ndarray):
    """Undirected labeled edges as (u, v) arrays, loops included.

    A proper inverse pair {s, s'} contributes the edges (x, s.x) for every x;
    a self-inverse s contributes each unordered pair once.
    """
    pairs = [(u, v) for u, v in _edges_by_symbol(names, inverse, actions) if u is not None]
    return np.concatenate([u for u, _ in pairs]), np.concatenate([v for _, v in pairs])


def _edges_by_symbol(names, inverse, actions):
    """Per symbol, the (u, v) edge arrays it owns, or (None, None) for the
    second symbol of an inverse pair."""
    x = np.arange(actions.shape[1])
    for i, name in enumerate(names):
        partner = names.index(inverse[name])
        if partner < i:
            yield None, None
            continue
        p = actions[i]
        keep = x <= p if partner == i else np.ones(x.size, dtype=bool)
        yield x[keep], p[keep]


def bad_edges(names, inverse, actions, images: np.ndarray) -> int:
    """Labeled edges (x, s.x) whose image (c(x), c(s.x)) is not an s-edge."""
    total = 0
    for i, (u, v) in enumerate(_edges_by_symbol(names, inverse, actions)):
        p = actions[i]
        if u is not None:
            total += int(np.count_nonzero(images[v] != p[images[u]]))
    return total


def boundary_size(names, inverse, actions, members) -> int:
    """Non-loop labeled edges with exactly one endpoint in ``members``."""
    u, v = labeled_edges(names, inverse, actions)
    inside = np.zeros(actions.shape[1], dtype=bool)
    inside[np.asarray(members, dtype=np.int64)] = True
    return int(np.count_nonzero((u != v) & (inside[u] != inside[v])))


def word_images(names, actions, letters) -> np.ndarray:
    """x -> s1 s2 ... sk . x, rightmost letter first."""
    pos = {name: i for i, name in enumerate(names)}
    out = np.arange(actions.shape[1])
    for letter in reversed(letters):
        out = actions[pos[letter]][out]
    return out


def is_bijection(images: np.ndarray) -> bool:
    n = images.size
    return bool(images.min() >= 0 and images.max() < n and np.bincount(images, minlength=n).max() == 1)


def group_structure(table: np.ndarray) -> tuple[list[str], list[int], bool]:
    """(problems, sorted element orders, abelian) of a multiplication table."""
    table = np.asarray(table, dtype=np.int64)
    k = table.shape[0]
    problems = []
    if table.shape != (k, k) or table.min() < 0 or table.max() >= k:
        return ["table is not a square table over its own indices"], [], False
    rows_ok = all(np.unique(table[i]).size == k for i in range(k))
    cols_ok = all(np.unique(table[:, i]).size == k for i in range(k))
    if not (rows_ok and cols_ok):
        return ["table is not a latin square"], [], False
    ident = [e for e in range(k) if (table[e] == np.arange(k)).all() and (table[:, e] == np.arange(k)).all()]
    if len(ident) != 1:
        return ["table has no two-sided identity"], [], False
    e = ident[0]
    for a in range(k):
        if not np.array_equal(table[table[a]], table[a][table]):
            problems.append("table is not associative")
            break
    orders = []
    for a in range(k):
        power, order = a, 1
        while power != e and order <= k:
            power = int(table[power, a])
            order += 1
        orders.append(order)
    return problems, sorted(orders), bool((table == table.T).all())


def element_orders(table: np.ndarray) -> list[int]:
    """Sorted element orders of a group given by its table: the expected
    orders of its automorphism cluster group."""
    return group_structure(table)[1]


def check_cluster_group(names, inverse, actions, table, reps, expected_table) -> list[str]:
    """A delta=0 cluster group of a connected Cayley graph is its group of
    right translations: the expected order, element orders and abelianness,
    with exact automorphisms as representatives multiplying as the table says."""
    problems, orders, abelian = group_structure(table)
    want_orders = element_orders(expected_table)
    want_abelian = group_structure(expected_table)[2]
    if orders != want_orders:
        problems.append(f"element orders {orders}, expected {want_orders}")
    if abelian != want_abelian:
        problems.append(f"abelian={abelian}, expected {want_abelian}")
    if problems:
        return problems
    reps = [np.asarray(r, dtype=np.int64) for r in reps]
    for i, rep in enumerate(reps):
        if not is_bijection(rep) or bad_edges(names, inverse, actions, rep):
            return [f"representative {i} is not an exact automorphism"]
    table = np.asarray(table)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            if not np.array_equal(a[b], reps[int(table[i, j])]):
                return [f"rep {i} * rep {j} is not rep {int(table[i, j])}"]
    return []


def check_lef(names, actions, cert, f_words, words_and_clusters, reps, table) -> list[str]:
    """certified; the F words land in distinct clusters whose representatives
    are within n/5 of the recomputed word maps; 5 is an element order; the
    table multiplies clusters of F as concatenation does."""
    problems = []
    if cert["status"] != "certified":
        problems.append(f"status {cert['status']!r}")
    n = actions.shape[1]
    cluster_of = {}
    for letters, idx in words_and_clusters:
        image = word_images(names, actions, letters)
        if 5 * int(np.count_nonzero(image != np.asarray(reps[idx]))) > n:
            problems.append(f"word {letters} is not within n/5 of its cluster {idx}")
        cluster_of[tuple(letters)] = idx
    f_clusters = {cluster_of[tuple(w)] for w in f_words}
    if len(f_clusters) != len(f_words):
        problems.append(f"F lands in {len(f_clusters)} clusters, expected {len(f_words)}")
    if 5 not in cert["element_orders"]:
        problems.append(f"no element of order 5 in {cert['element_orders']}")
    for w1 in f_words:
        for w2 in f_words:
            got = int(table[cluster_of[tuple(w1)], cluster_of[tuple(w2)]])
            if got != cluster_of[tuple(w1) + tuple(w2)]:
                problems.append(f"cluster product of {w1} and {w2} is not the cluster of the concatenation")
    return problems


def check_improved(names, inverse, actions, given, improved, planted, trace) -> tuple[list[str], int]:
    """Never worse than the input, bad edges reported as recounted; returns
    the problems and the Hamming distance to the planted map."""
    problems = []
    if not is_bijection(improved):
        return ["improved map is not a bijection"], -1
    bad_in = bad_edges(names, inverse, actions, given)
    bad_out = bad_edges(names, inverse, actions, improved)
    if bad_out > bad_in:
        problems.append(f"improved map has {bad_out} bad edges, input had {bad_in}")
    if trace["initial"]["bad_edges"] != bad_in or trace["final"]["bad_edges"] != bad_out:
        problems.append(
            f"trace reports {trace['initial']['bad_edges']} -> {trace['final']['bad_edges']} bad edges, "
            f"recount gives {bad_in} -> {bad_out}"
        )
    return problems, int(np.count_nonzero(improved != planted))


def check_cheeger(names, inverse, actions, doc) -> list[str]:
    """The witness ratio, recounted, is the exact value or the upper bound."""
    n = actions.shape[1]
    witness = doc["witness"]
    if not 1 <= len(witness) <= n // 2:
        return [f"witness of size {len(witness)} outside 1..n/2"]
    ratio = Fraction(boundary_size(names, inverse, actions, witness), len(witness))
    if doc["kind"] == "exact":
        if ratio != Fraction(*doc["value"]):
            return [f"witness ratio {ratio}, reported {doc['value']}"]
        return []
    problems = []
    upper = min(float(len(names)), float(ratio))
    if abs(upper - doc["upper"]) > 1e-12 * max(1.0, upper):
        problems.append(f"witness ratio {float(ratio)}, reported upper {doc['upper']}")
    if not 0.0 <= doc["lower"] <= doc["upper"]:
        problems.append(f"interval [{doc['lower']}, {doc['upper']}] is not ordered")
    return problems


def reduced_word_count(degree: int, max_len: int) -> int:
    return sum(degree * (degree - 1) ** (length - 1) for length in range(1, max_len + 1))


def check_sofic(names, actions, doc, max_len) -> list[str]:
    """Every reduced word of length <= max_len, each defect recomputed by
    composing the permutations (non-identity words are charged fixed points)."""
    n = actions.shape[1]
    words = doc["words"]
    if len(words) != reduced_word_count(len(names), max_len):
        return [f"{len(words)} words, expected {reduced_word_count(len(names), max_len)}"]
    worst = 0.0
    x = np.arange(n)
    for w in words:
        image = word_images(names, actions, w["letters"])
        bad = int(np.count_nonzero(image == x)) if not w["expects_identity"] else int(np.count_nonzero(image != x))
        if bad / n != w["defect"]:
            return [f"word {w['letters']}: defect {w['defect']}, recount {bad / n}"]
        worst = max(worst, bad / n)
    if worst != doc["max_defect"]:
        return [f"max_defect {doc['max_defect']}, recount {worst}"]
    return []


def check_report(names, inverse, actions, doc) -> list[str]:
    n = actions.shape[1]
    u, v = labeled_edges(names, inverse, actions)
    loops = int(np.count_nonzero(u == v))
    images = np.sort(np.vstack([actions, np.arange(n)[None, :]]), axis=0)
    simple = not bool((images[1:] == images[:-1]).any())
    want = {"n": n, "degree": len(names), "loops": loops, "simple": simple}
    got = {key: doc.get(key) for key in want}
    return [] if got == want and sorted(doc["symbols"]) == sorted(names) else [f"report {got}, recount {want}"]
