"""Inputs of the benchmark, generated by the benchmark itself from a seed.

Group tables are rebuilt here rather than taken from ``soficlab.groups``, so
the expectations the oracles check (element orders, right translations) do
not come from the code under test.  The numbering matches the package's
presets (symmetric groups in lexicographic order of image tuples, products
``(a, b) -> a * |B| + b``), which keeps generator names such as ``g30`` the
same.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of every workload; FULL is the benchmark, TINY the smoke test."""

    closure_k: int  # closure over Cay(S_k)
    lef_k: int  # LEF certificate over Cay(S_k x Z5)
    improve_n: int  # random 2-pair model for improve-n2000
    improve_levels: tuple[float, ...]  # share of vertices moved by transpositions
    cli_spectral_n: int  # cheeger, spectral path
    cli_exact_n: int  # cheeger, exhaustive path
    cli_sofic_n: int  # sofic and report
    cli_sofic_len: int  # sofic --max-len
    cli_improve_k: int  # improve on Cay(S_k)
    cli_cluster_k: int  # cluster-group --auto on Cay(S_k)


FULL = Sizes(
    closure_k=4,
    lef_k=4,
    improve_n=2000,
    improve_levels=(0.01, 0.1, 0.4),
    cli_spectral_n=20_000,
    cli_exact_n=22,
    cli_sofic_n=100_000,
    cli_sofic_len=5,
    cli_improve_k=5,
    cli_cluster_k=3,
)
TINY = Sizes(
    closure_k=3,
    lef_k=3,
    improve_n=200,
    improve_levels=(0.01, 0.1, 0.4),
    cli_spectral_n=300,
    cli_exact_n=10,
    cli_sofic_n=1000,
    cli_sofic_len=3,
    cli_improve_k=4,
    cli_cluster_k=3,
)


def symmetric_table(k: int) -> np.ndarray:
    """Sym(k) in lexicographic order; the product p*q is p after q."""
    elems = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(elems)}
    return np.array([[index[tuple(p[x] for x in q)] for q in elems] for p in elems], dtype=np.int64)


def symmetric_generators(k: int) -> list[int]:
    """Transposition (0 1), the k-cycle and its inverse, as element indices."""
    elems = sorted(permutations(range(k)))
    swap = (1, 0) + tuple(range(2, k))
    cycle = tuple(range(1, k)) + (0,)
    inverse = tuple(cycle.index(x) for x in range(k))
    return sorted({elems.index(swap), elems.index(cycle), elems.index(inverse)})


def product_table(ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    nb = tb.shape[0]
    a = ta[:, None, :, None] * nb + tb[None, :, None, :]
    return a.reshape(ta.shape[0] * nb, ta.shape[0] * nb)


def cyclic_table(m: int) -> np.ndarray:
    i = np.arange(m)
    return (i[:, None] + i[None, :]) % m


@dataclass
class CayleyInput:
    """Left-multiplication Cayley graph, as raw arrays, after a vertex relabeling.

    ``sigma[x]`` is the vertex carrying group element ``x``.
    """

    table: np.ndarray
    names: list[str]
    inverse_names: list[str]
    actions: np.ndarray
    sigma: np.ndarray


def cayley_input(table: np.ndarray, gens: list[int], rng: np.random.Generator | None) -> CayleyInput:
    m = table.shape[0]
    identity = int(np.flatnonzero((table == np.arange(m)).all(axis=1))[0])
    inv = {g: int(np.flatnonzero(table[g] == identity)[0]) for g in gens}
    names = [f"g{g}" for g in gens]
    inverse_names = [f"g{inv[g]}" for g in gens]
    sigma = rng.permutation(m) if rng is not None else np.arange(m)
    actions = np.empty((len(gens), m), dtype=np.int64)
    for i, g in enumerate(gens):
        actions[i, sigma] = sigma[table[g]]  # x -> g*x, in relabeled vertices
    return CayleyInput(table, names, inverse_names, actions, sigma)


def s_k_input(k: int, rng: np.random.Generator | None) -> CayleyInput:
    return cayley_input(symmetric_table(k), symmetric_generators(k), rng)


def s_k_times_z5_input(k: int, rng: np.random.Generator | None) -> tuple[CayleyInput, list[str], str]:
    """Cay(S_k x Z5), the gamma labels of its S_k part and the Z5 generator name."""
    table = product_table(symmetric_table(k), cyclic_table(5))
    s_gens = [a * 5 for a in symmetric_generators(k)]
    graph = cayley_input(table, s_gens + [1, 4], rng)
    return graph, [f"g{g}" for g in s_gens], "g1"


def right_translation(inp: CayleyInput, element: int) -> np.ndarray:
    """The automorphism x -> x*element of a left Cayley graph, on vertices."""
    images = np.empty(inp.table.shape[0], dtype=np.int64)
    images[inp.sigma] = inp.sigma[inp.table[:, element]]
    return images


def random_two_pair_model(n: int, rng: np.random.Generator) -> tuple[list[tuple[str, str]], np.ndarray]:
    """Two uniform permutations with their inverses, as (name pairs, actions)."""
    p, q = rng.permutation(n), rng.permutation(n)
    return [("a", "A"), ("b", "B")], np.stack([p, np.argsort(p), q, np.argsort(q)])


def transposition_corruption(base: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    """``base`` with disjoint random transpositions applied, moving ``share`` of the vertices."""
    half = max(1, int(round(share * base.size / 2)))
    points = rng.choice(base.size, 2 * half, replace=False)
    out = base.copy()
    out[points[:half]], out[points[half:]] = base[points[half:]], base[points[:half]]
    return out
