from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import GeneratorSet, VertexSet, boundary, cayley_graph, make_labeled_graph, product_graph
from soficlab.errors import DegenerateVector, TooLargeForExhaustive
from soficlab import expansion
from soficlab.expansion import (
    average,
    cheeger_bounds,
    cheeger_exact,
    descending_order,
    lambda2,
    prefix_boundary_counts,
    sweep_cut,
)
from soficlab.sofic import random_permutation_model
from soficlab import groups

from conftest import cycle_graph, random_connected_graph, random_simple_graph, two_cycles


def brute_cheeger(g):
    """Independent oracle: enumerate subsets, measure via boundary()."""
    best = None
    for size in range(1, g.n // 2 + 1):
        for comb in combinations(range(g.n), size):
            b, _ = boundary(g, VertexSet.from_indices(g.n, comb))
            key = (Fraction(b, size), comb)
            if best is None or key < best:
                best = key
    return best


def dense_averaging_eigs(g):
    """Independent oracle: full spectrum of M via numpy.linalg.eigvalsh."""
    m = np.zeros((g.n, g.n))
    for p in g.actions:
        m[np.arange(g.n), p] += 1.0
    m /= len(g.gens)
    return np.sort(np.linalg.eigvalsh(m))


def test_cheeger_exact_c6():
    est = cheeger_exact(cycle_graph(6))
    assert est.value == Fraction(2, 3)
    assert est.witness.indices().tolist() == [0, 1, 2]


def test_cheeger_exact_k4():
    est = cheeger_exact(cayley_graph(groups.cyclic_table(4), [1, 2, 3]))
    assert est.value == Fraction(2)
    assert est.witness.cardinality == 2


def test_cheeger_exact_disconnected_zero():
    est = cheeger_exact(two_cycles(3))
    assert est.value == 0
    assert boundary(two_cycles(3), est.witness)[0] == 0


def test_cheeger_exact_limit():
    with pytest.raises(TooLargeForExhaustive):
        cheeger_exact(cycle_graph(12), exhaustive_limit=10)


def test_cheeger_exact_matches_brute_force(rng):
    for _ in range(20):
        n = int(rng.integers(5, 11))
        g = random_simple_graph(rng, n)
        value, _ = brute_cheeger(g)
        est = cheeger_exact(g)
        assert est.value == value
        # witness soundness: recompute the ratio independently
        b, _ = boundary(g, est.witness)
        assert Fraction(b, est.witness.cardinality) == est.value


def test_cheeger_witness_is_lex_smallest(rng):
    for _ in range(10):
        n = int(rng.integers(5, 9))
        g = random_simple_graph(rng, n, extra_matching=False)
        est = cheeger_exact(g)
        mins = []
        for size in range(1, n // 2 + 1):
            for comb in combinations(range(n), size):
                b, _ = boundary(g, VertexSet.from_indices(n, comb))
                if Fraction(b, size) == est.value:
                    mins.append(comb)
        assert tuple(est.witness.indices().tolist()) == min(mins)


def test_lambda2_cycle_anchor():
    # circulant spectrum: cos(2 pi k / 6), second largest is 1/2
    sd = lambda2(cycle_graph(6))
    assert sd.converged
    assert abs(sd.lambda2 - 0.5) < 1e-8


def test_lambda2_k4_anchor():
    sd = lambda2(cayley_graph(groups.cyclic_table(4), [1, 2, 3]))
    assert sd.converged
    assert abs(sd.lambda2 - (-1.0 / 3.0)) < 1e-8


def test_lambda2_iterates_on_mean_zero_vectors():
    sd = lambda2(cycle_graph(8), seed=3)
    assert abs(float(sd.vector.mean())) < 1e-12
    assert abs(float(np.linalg.norm(sd.vector)) - 1.0) < 1e-12


def test_lambda2_disconnected_is_one():
    sd = lambda2(two_cycles(6))
    assert abs(sd.lambda2 - 1.0) < 1e-8


def test_lambda2_matches_dense_solver(rng):
    for _ in range(15):
        n = int(rng.integers(5, 25))
        g = random_simple_graph(rng, n)
        eigs = dense_averaging_eigs(g)
        sd = lambda2(g, tol=1e-12)
        assert sd.converged
        assert abs(sd.lambda2 - eigs[-2]) < 1e-6


def test_cheeger_bounds_c6():
    g = cycle_graph(6)
    est = cheeger_bounds(g, lambda2(g))
    assert abs(est.lower - 0.5) < 1e-6
    assert est.lower <= Fraction(2, 3) <= Fraction(est.upper).limit_denominator(10**12) + Fraction(1, 10**12)
    assert est.lower <= est.upper


def test_cheeger_bounds_tight_on_k4():
    g = cayley_graph(groups.cyclic_table(4), [1, 2, 3])
    est = cheeger_bounds(g, lambda2(g))
    assert abs(est.lower - 2.0) < 1e-6
    assert est.lower <= 2.0 <= est.upper


def test_cheeger_bounds_disconnected():
    g = two_cycles(6)
    est = cheeger_bounds(g, lambda2(g))
    assert est.lower == 0.0
    assert est.upper == 0.0
    assert boundary(g, est.witness)[0] == 0


def test_sandwich_on_random_corpus(rng):
    for _ in range(30):
        n = int(rng.integers(4, 16))
        g = random_connected_graph(rng, n)
        exact = cheeger_exact(g)
        interval = cheeger_bounds(g, lambda2(g))
        assert interval.lower <= exact.value, (interval.lower, exact.value)
        upper = Fraction(boundary(g, interval.witness)[0], interval.witness.cardinality)
        assert exact.value <= upper


def test_sweep_cut_c6_prefix():
    s, ratio = sweep_cut(cycle_graph(6), np.array([3.0, 2.0, 1.0, 0.0, 0.0, 0.0]))
    assert s.indices().tolist() == [0, 1, 2]
    assert ratio == pytest.approx(2 / 3)


def test_sweep_cut_component_indicator():
    g = two_cycles(5)
    vec = np.zeros(10)
    vec[:5] = 1.0
    s, ratio = sweep_cut(g, vec)
    assert ratio == 0.0
    assert s.indices().tolist() == [0, 1, 2, 3, 4]


def test_sweep_cut_degenerate():
    with pytest.raises(DegenerateVector):
        sweep_cut(cycle_graph(6), np.ones(6))


def test_sweep_cut_invariants(rng):
    for _ in range(25):
        n = int(rng.integers(5, 40))
        g = random_simple_graph(rng, n)
        vec = rng.standard_normal(n)
        s, ratio = sweep_cut(g, vec)
        assert 1 <= s.cardinality <= n // 2
        b, _ = boundary(g, s)
        assert ratio == pytest.approx(b / s.cardinality)


def small_non_simple_graphs():
    """Loops and parallel edges of proper pairs, and a self-inverse symbol
    with fixed points, where |bd| of the product graph is easy to get wrong."""
    swap = np.array([1, 0, 2, 3, 5, 4, 6])  # self-inverse, fixed points 2, 3, 6
    looped = np.array([0, 2, 1, 3, 5, 6, 4])  # loops at 0, 3 and a 2-cycle
    mixed = make_labeled_graph(
        7, GeneratorSet.from_pairs([("b", "B"), ("t", "t")]), [looped, np.argsort(looped), swap]
    )
    return [mixed] + [random_permutation_model(n, 2, seed=n) for n in (2, 4, 5, 6)]


def test_prefix_boundary_counts_match_boundary_on_g_and_product(rng):
    for g in small_non_simple_graphs():
        n = g.n
        order = rng.permutation(n)
        expected = [boundary(g, VertexSet.from_indices(n, order[:j]))[0] for j in range(1, n)]
        assert prefix_boundary_counts(g, order, (n,)).tolist() == expected
        prod = product_graph(g, g)
        order = rng.permutation(n * n)
        expected = [boundary(prod, VertexSet.from_indices(n * n, order[:j]))[0] for j in range(1, n * n)]
        assert prefix_boundary_counts(g, order, (n, n)).tolist() == expected


def test_average_matches_gather_on_g_and_product(rng):
    for g in small_non_simple_graphs():
        n = g.n
        v = rng.standard_normal(n)
        assert np.array_equal(average(g, v), v[g.actions].mean(axis=0))
        x = rng.standard_normal((n, n))
        # float64 means also of bool and int inputs
        for cells in (x, x > 0, np.rint(4 * x).astype(np.int64)):
            expected = cells.ravel()[product_graph(g, g).actions].mean(axis=0)
            result = average(g, cells)
            assert result.dtype == np.float64
            assert np.array_equal(result.ravel(), expected)


# few distinct values, so the K-th value is usually tied; NaN sorts last
_tied_values = st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -3.0, np.nan]), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(_tied_values, st.data())
def test_partial_descending_order_is_a_prefix_of_the_full_order(values, data):
    vec = np.array(values)
    limit = data.draw(st.integers(min_value=1, max_value=vec.size + 2))
    full = descending_order(vec)
    assert full.tolist() == np.lexsort((np.arange(vec.size), -vec)).tolist()
    assert descending_order(vec, limit).tolist() == full[:limit].tolist()


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=2**32 - 1), st.data())
def test_partial_prefix_boundary_counts_match_the_full_counts(graph_index, seed, data):
    # graph 0 has a self-inverse symbol with fixed points and proper-pair loops
    g = small_non_simple_graphs()[graph_index]
    rng = np.random.default_rng(seed)
    for shape in ((g.n,), (g.n, g.n)):
        size = int(np.prod(shape))
        order = rng.permutation(size)
        full = prefix_boundary_counts(g, order, shape)
        limit = data.draw(st.integers(min_value=1, max_value=size))
        partial = prefix_boundary_counts(g, order[:limit], shape)
        assert partial.tolist() == full[:limit].tolist()


@pytest.mark.parametrize("tile_cells", [expansion._TILE_CELLS, 64])
def test_average_row_blocks_are_bit_identical(rng, monkeypatch, tile_cells):
    monkeypatch.setattr(expansion, "_TILE_CELLS", tile_cells)
    for g in small_non_simple_graphs()[:2] + [random_permutation_model(300, 2, seed=3)]:
        n = g.n
        x = rng.standard_normal((n, n))
        expected = x.ravel()[product_graph(g, g).actions].mean(axis=0).view(np.int64).reshape(n, n)
        assert np.array_equal(average(g, x).view(np.int64), expected)
        for blocks in (1, 2, 3, 7, n + 2):
            out = np.full_like(x, np.nan)
            expansion._average_row_blocks(g.actions, x, out, blocks)
            assert np.array_equal(out.view(np.int64), expected)
