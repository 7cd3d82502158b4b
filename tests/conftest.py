"""Shared builders for the test suite.

Random graphs come from relabeled circulants (optionally with a matching
symbol): distinct step sizes make them simple by construction, and a random
conjugation hides the circulant structure without touching labeled-graph
invariants.
"""

from __future__ import annotations

import numpy as np
import pytest

from soficlab import GeneratorSet, LabeledGraph, make_labeled_graph
from soficlab.core_graph import is_simple


def cycle_graph(n: int, names=("a", "A")) -> LabeledGraph:
    """Cay(Z_n, {1, -1}) for n >= 3, built from its two rotations without a table."""
    ident = np.arange(n)
    return make_labeled_graph(n, GeneratorSet.from_pairs([tuple(names)]), [np.roll(ident, -1), np.roll(ident, 1)])


def two_cycles(n: int) -> LabeledGraph:
    """Disjoint union of two n-cycles on 2n vertices, same labels."""
    fwd = np.concatenate([np.roll(np.arange(n), -1), n + np.roll(np.arange(n), -1)])
    return make_labeled_graph(2 * n, GeneratorSet.from_pairs([("a", "A")]), [fwd, np.argsort(fwd)])


def involution_model(n: int, seed: int) -> LabeledGraph:
    """k = 3: a random self-inverse symbol with fixed points next to a random pair."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    t = np.arange(n)
    m = 2 * (n // 3)
    t[perm[0:m:2]], t[perm[1:m:2]] = perm[1:m:2], perm[0:m:2]
    p = rng.permutation(n)
    return make_labeled_graph(n, GeneratorSet.from_pairs([("t", "t"), ("a", "A")]), [t, p, np.argsort(p)])


def conjugate_graph(g: LabeledGraph, sigma: np.ndarray) -> LabeledGraph:
    """Relabel vertices by sigma: each action p becomes sigma . p . sigma^-1."""
    inv = np.argsort(sigma)
    return LabeledGraph(g.n, g.gens, np.stack([sigma[p[inv]] for p in g.actions]))


def random_simple_graph(rng: np.random.Generator, n: int, extra_matching: bool = True) -> LabeledGraph:
    """Random simple labeled graph: relabeled circulant, plus a random
    perfect-matching symbol when it fits without parallel edges."""
    assert n >= 5
    max_steps = min(2, (n - 1) // 2)
    k_steps = int(rng.integers(1, max_steps + 1))
    steps = rng.choice(np.arange(1, n // 2 + 1), size=k_steps, replace=False)
    pairs, actions = [], []
    ident = np.arange(n)
    for a in sorted(int(s) for s in steps):
        if 2 * a == n:
            pairs.append((f"c{a}", f"c{a}"))
            actions.append((ident + a) % n)
        else:
            pairs.append((f"c{a}", f"c{a}'"))
            actions.append((ident + a) % n)
            actions.append((ident - a) % n)
    if extra_matching and n % 2 == 0 and rng.random() < 0.5:
        for _ in range(40):
            perm = rng.permutation(n)
            m = np.empty(n, dtype=np.int64)
            m[perm[0::2]] = perm[1::2]
            m[perm[1::2]] = perm[0::2]
            candidate = actions + [m]
            cand_pairs = pairs + [("m", "m")]
            gens = GeneratorSet.from_pairs(cand_pairs)
            g = make_labeled_graph(n, gens, candidate)
            if is_simple(g):
                break
        else:
            g = make_labeled_graph(n, GeneratorSet.from_pairs(pairs), actions)
    else:
        g = make_labeled_graph(n, GeneratorSet.from_pairs(pairs), actions)
    assert is_simple(g)
    return conjugate_graph(g, rng.permutation(n))


def random_connected_graph(rng: np.random.Generator, n: int) -> LabeledGraph:
    """Connected variant: always includes the step-1 pair."""
    ident = np.arange(n)
    pairs = [("c1", "c1'")]
    actions = [(ident + 1) % n, (ident - 1) % n]
    if n >= 7 and rng.random() < 0.7:
        a = int(rng.integers(2, n // 2 + 1))
        if 2 * a == n:
            pairs.append((f"c{a}", f"c{a}"))
            actions.append((ident + a) % n)
        else:
            pairs.append((f"c{a}", f"c{a}'"))
            actions.extend([(ident + a) % n, (ident - a) % n])
    g = make_labeled_graph(n, GeneratorSet.from_pairs(pairs), actions)
    return conjugate_graph(g, rng.permutation(n))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
