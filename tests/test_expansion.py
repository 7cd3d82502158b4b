import dataclasses
import json
import math
import os
import re
import sys
import time
import tracemalloc
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
    smooth,
    smoothing_gap,
    sweep_cut,
)
from soficlab.sofic import random_permutation_model
from soficlab import groups

from conftest import cycle_graph, involution_model, random_connected_graph, random_simple_graph, two_cycles


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
    graphs = [random_simple_graph(rng, int(rng.integers(5, 11))) for _ in range(20)]
    # multigraphs: parallel slots, loops and 2-cycles of paired symbols
    graphs += [
        random_permutation_model(n, pairs, int(rng.integers(2**31)))
        for n in range(2, 11)
        for pairs in range(4)
    ]
    # a self-inverse symbol with fixed points (loops) beside a paired one
    involution = np.array([1, 0, 3, 2, 4, 5, 6])
    step = np.roll(np.arange(7), -2)
    graphs.append(make_labeled_graph(7, GeneratorSet.from_pairs([("t", "t"), ("a", "A")]), [involution, step, np.argsort(step)]))
    for g in graphs:
        value, witness = brute_cheeger(g)
        est = cheeger_exact(g)
        assert (est.value, tuple(est.witness.indices().tolist())) == (value, witness)
        # witness soundness: recompute the ratio independently
        b, _ = boundary(g, est.witness)
        assert Fraction(b, est.witness.cardinality) == est.value


def test_cheeger_exact_memory_per_subset():
    n = expansion.EXHAUSTIVE_LIMIT
    g = random_permutation_model(n, 2, 5)
    tracemalloc.start()
    try:
        est = cheeger_exact(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.witness.cardinality <= n // 2
    # one int32 boundary table (4 bytes per subset) plus chunk-sized temporaries
    assert peak <= 6 * 2**n, f"{peak / 2**n:.2f} bytes per subset"
    # the edgeless graph: every set of size 1..n/2 has ratio 0, so every chunk
    # is full of minimising masks and only its lex-min may be kept; brute force
    # is out of reach at this n, but its answer is the lex-smallest singleton
    tracemalloc.start()
    try:
        est = cheeger_exact(random_permutation_model(n, 0, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (est.value, tuple(est.witness.indices().tolist())) == (Fraction(0), (0,))
    assert peak <= 6 * 2**n, f"{peak / 2**n:.2f} bytes per subset on the edgeless graph"


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


def test_lambda2_matches_dense_solver_past_the_checks():
    # long enough runs that the stopping rule, not the Krylov dimension, ends them
    for n, seed in ((300, 1), (600, 2)):
        g = random_permutation_model(n, 2, seed=seed)
        sd = lambda2(g)
        assert sd.converged and sd.iterations < n - 1
        assert abs(sd.lambda2 - dense_averaging_eigs(g)[-2]) < 1e-9
        assert sd.residual < 1e-4


def test_lambda2_converged_is_a_python_bool():
    g = random_permutation_model(200, 2, seed=3)
    for sd in (lambda2(g), lambda2(g, max_iter=5), lambda2(cycle_graph(6))):
        assert type(sd.converged) is bool
        assert type(sd.iterations) is int and type(sd.lambda2) is float
        json.dumps({"converged": sd.converged, "iterations": sd.iterations})
    assert lambda2(g, max_iter=5).iterations == 5


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": math.nan}, "tol=nan, max_iter=10000"),
        ({"tol": -1.0}, "tol=-1.0, max_iter=10000"),
        ({"tol": 0.0}, "tol=0.0, max_iter=10000"),
        ({"tol": math.inf}, "tol=inf, max_iter=10000"),
        ({"max_iter": 0}, "tol=1e-10, max_iter=0"),
        ({"max_iter": -3}, "tol=1e-10, max_iter=-3"),
    ],
)
def test_lambda2_rejects_invalid_stopping_parameters(kwargs, message):
    # a NaN or non-positive tol never stops the run before the Krylov space is
    # exhausted, an infinite one stops it at the first check, and max_iter < 1
    # still ran one step; each was reported as a result
    message = f"^need a positive finite tol and max_iter >= 1, got {re.escape(message)}$"
    g = random_permutation_model(200, 2, seed=1)
    with pytest.raises(ValueError, match=message):
        lambda2(g, **kwargs)
    with pytest.raises(ValueError, match=message):
        lambda2(make_labeled_graph(1, GeneratorSet.from_pairs([("a", "A")]), [[0], [0]]), **kwargs)


def test_tridiagonal_top_eigenpair_matches_eigh(rng):
    for m in (1, 2, 5, 40, 200):
        a = rng.uniform(-1, 1, m).tolist()
        b = rng.uniform(0, 1, m - 1).tolist()
        t = np.diag(a) + np.diag(b, 1) + np.diag(b, -1)
        vals, vecs = np.linalg.eigh(t)
        for start in (-1.0, vals[-1] - 0.25, vals[-1] + 0.25):
            lo, hi = expansion._top_eigenvalue(a, [x * x for x in b], start)
            assert lo <= hi and abs(lo - vals[-1]) < 1e-13
        y = np.array(expansion._top_eigenvector(a, b, hi))
        assert abs(abs(float(y @ vecs[:, -1])) - 1.0) < 1e-9


def test_lambda2_memory_and_time_on_a_long_cycle():
    # lambda2 = cos(2 pi / n) is 5e-8 below 1: the run takes all max_iter
    # steps.  The cycle is built from its rotations: cycle_graph would build
    # an n x n Cayley table.
    n = 20000
    step = np.roll(np.arange(n), -1)
    g = make_labeled_graph(n, GeneratorSet.from_pairs([("a", "A")]), [step, np.argsort(step)])
    tracemalloc.start()
    try:
        start = time.perf_counter()
        sd = lambda2(g, max_iter=10000)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (sd.iterations, sd.converged) == (10000, False)
    assert abs(sd.lambda2 - np.cos(2 * np.pi / n)) < 1e-9
    # a stored basis would take 10000 n floats (1.6 GB); O(n) is a few vectors
    assert peak < 32 * 8 * n, f"peak {peak} bytes"
    assert elapsed < 10.0, f"{elapsed:.1f} s"


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
        assert interval.lower_certified
        assert interval.lower <= exact.value, (interval.lower, exact.value)
        upper = Fraction(boundary(g, interval.witness)[0], interval.witness.cardinality)
        assert exact.value <= upper


def test_cheeger_bounds_refuses_an_estimate_below_lambda2():
    # K4 and Q6 meet the spectral bound with equality: a lambda2 too low by
    # 1e-3 would put the old lower bound above h
    for g, h in (
        (cayley_graph(groups.cyclic_table(4), [1, 2, 3]), 2.0),
        (cayley_graph(*groups.preset_group("z2xz2xz2xz2xz2xz2")), 1.0),
    ):
        sd = lambda2(g)
        good = cheeger_bounds(g, sd)
        assert good.lower_certified and h - 1e-6 <= good.lower <= h
        low = cheeger_bounds(g, dataclasses.replace(sd, lambda2=sd.lambda2 - 1e-3))
        assert not low.lower_certified and low.lower == 0.0
        assert low.as_dict()["lower_certified"] is False


@pytest.mark.parametrize("shortfall", [1e-3, 0.05])
def test_cheeger_bounds_refuses_an_underestimate_on_expanders(shortfall):
    # the Cholesky factorisation fails below lambda2 also where the spectral
    # bound is far from h (certified lower bounds 0.293 and 0.258)
    for g in (cayley_graph(*groups.preset_group("s4")), random_permutation_model(200, 2, 1)):
        sd = lambda2(g)
        good = cheeger_bounds(g, sd)
        assert good.lower_certified and good.lower > 0.25
        low = cheeger_bounds(g, dataclasses.replace(sd, lambda2=sd.lambda2 - shortfall))
        assert low.lower == 0.0 and low.lower_certified is False
        assert low.upper == good.upper


def test_cheeger_bounds_above_the_certify_limit(monkeypatch):
    g = random_permutation_model(64, 2, seed=5)
    sd = lambda2(g)
    certified = cheeger_bounds(g, sd)
    assert certified.lower_certified and certified.lower > 0
    monkeypatch.setattr(expansion, "CERTIFY_LIMIT", 63)
    est = cheeger_bounds(g, sd)
    assert (est.lower, est.lower_certified) == (0.0, False)
    assert est.upper == certified.upper


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


@pytest.mark.parametrize("n", [0, 1])
def test_sweep_cut_needs_two_vertices(n):
    # no prefix of size <= n/2 exists
    g = make_labeled_graph(n, GeneratorSet.from_pairs([("a", "A")]), [np.arange(n), np.arange(n)])
    with pytest.raises(ValueError, match="sweep cut needs at least 2 vertices"):
        sweep_cut(g, np.zeros(n))


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


def test_average_matches_gather(rng):
    for g in small_non_simple_graphs():
        v = rng.standard_normal(g.n)
        assert np.array_equal(average(g, v), v[g.actions].mean(axis=0))


# few distinct values, so the K-th value is usually tied; NaN sorts last
_tied_values = st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, -3.0, np.nan]), min_size=1, max_size=80)
# int32 walk counts, as improve passes them
_tied_counts = st.lists(st.sampled_from([0, 1, 2, 7, 2**31 - 1]), min_size=1, max_size=80)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_tied_values.map(np.array), _tied_counts.map(lambda v: np.array(v, dtype=np.int32))), st.data())
def test_partial_descending_order_is_a_prefix_of_the_full_order(vec, data):
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
    # the dense step's tile loop, on int32 counts and on smooth()'s bool
    # first-step mask, against the product graph's gathers summed in int64
    monkeypatch.setattr(expansion, "_TILE_CELLS", tile_cells)
    for g in small_non_simple_graphs()[:2] + [random_permutation_model(300, 2, seed=3)]:
        n = g.n
        prod_actions = product_graph(g, g).actions
        for x in (rng.integers(0, 2**24, (n, n), dtype=np.int32), rng.random((n, n)) < 0.3):
            expected = x.ravel()[prod_actions].sum(axis=0, dtype=np.int64).reshape(n, n)
            out = np.full((n, n), -1, dtype=np.int32)
            expansion._count_rows(g.actions, x, out)
            assert np.array_equal(out, expected)


def test_partial_descending_order_makes_one_copy():
    # the negated values are the one array of the size of vec; the parent
    # made a second one for np.partition (16 bytes per cell)
    vec = np.random.default_rng(3).random(1 << 20)
    tracemalloc.start()
    try:
        order = descending_order(vec, 1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert order.tolist() == np.argsort(-vec, kind="stable")[:1000].tolist()
    assert peak <= 10 * vec.size, f"{peak / vec.size:.2f} bytes per cell"


def _neighbourhood_sizes(g, cells, steps):
    """|N_j| for j = 1..steps on the product graph, N_0 the cells and N_j the
    cells with a neighbour in N_{j-1}."""
    prod = product_graph(g, g)
    mask = np.zeros(g.n * g.n, dtype=bool)
    mask[cells] = True
    sizes = []
    for _ in range(steps):
        mask = mask[prod.actions].any(axis=0)
        sizes.append(int(mask.sum()))
    return sizes


@pytest.mark.parametrize("share", [0, expansion._FRONTIER_SHARE, math.inf])
def test_smooth_is_bit_identical_to_repeated_average(rng, monkeypatch, share):
    # share 0 runs every step on its frontier, share inf every step dense; the
    # oracle is the product graph's gather summed in int64, independent of
    # smooth's kernel
    monkeypatch.setattr(expansion, "_FRONTIER_SHARE", share)
    for g in small_non_simple_graphs() + [random_permutation_model(40, 2, seed=4)]:
        n = g.n
        prod_actions = product_graph(g, g).actions
        for size in {1, n, n * n // 3}:
            cells = rng.choice(n * n, size, replace=False)
            chi = np.zeros(n * n, dtype=np.int64)
            chi[cells] = 1
            powers = [chi]
            for _ in range(8):
                powers.append(powers[-1][prod_actions].sum(axis=0))
            neighbourhoods = _neighbourhood_sizes(g, cells, 8)
            for steps, expected in enumerate(powers[1:], 1):
                values, computed = smooth(g, cells, steps)
                assert values.dtype == np.int32
                assert np.array_equal(values, expected)
                if share == 0:
                    assert computed == sum(neighbourhoods[:steps])
                elif share == math.inf:
                    assert computed == steps * n * n


def test_smooth_computes_frontier_steps_until_the_support_is_large(rng):
    # at the default share, step j runs on its frontier while step j-1 did and
    # _FRONTIER_SHARE * k * |S_{j-1}| < n^2, S_0 the cells and S_j the j-step
    # neighbourhood; a frontier step computes |S_j| cells, a dense one n^2
    share = expansion._FRONTIER_SHARE
    switched = last_on_frontier = 0
    graphs = small_non_simple_graphs() + [involution_model(n, n) for n in (30, 60)]
    graphs += [random_permutation_model(n, pairs, seed=n) for n, pairs in ((40, 2), (64, 2), (90, 2), (70, 3))]
    for g in graphs:
        n, k = g.n, len(g.gens)
        for size in {1, 2, n // 4 + 1, n}:
            cells = rng.choice(n * n, size, replace=False)
            supports = [size] + _neighbourhood_sizes(g, cells, 10)
            for steps in range(1, 11):
                frontier = 0  # the number of frontier steps
                while frontier < steps and share * k * supports[frontier] < n * n:
                    frontier += 1
                _, computed = smooth(g, cells, steps)
                assert computed == sum(supports[1 : frontier + 1]) + (steps - frontier) * n * n
                switched += 0 < frontier < steps
                last_on_frontier += frontier == steps
    assert switched and last_on_frontier


def _exact_gap(g, cells):
    """``||chi - M chi||^2`` as a Fraction, from the product graph's gathers."""
    k = len(g.gens)
    chi = np.zeros(g.n * g.n, dtype=np.int64)
    chi[cells] = 1
    walks = chi[product_graph(g, g).actions].sum(axis=0)
    return Fraction(int(((k * chi - walks) ** 2).sum()), k * k)


def _float_gap(g, cells):
    """``((chi - M chi) ** 2).sum()`` in float64 over the ``(n, n)`` cells,
    pairwise summation, ``M chi`` the product graph's gathers divided by k."""
    n = g.n
    chi = np.zeros(n * n)
    chi[cells] = 1.0
    average = chi[product_graph(g, g).actions].sum(axis=0) / len(g.gens)
    return float(((chi - average).reshape(n, n) ** 2).sum())


def test_smoothing_gap_equals_the_exact_fraction(rng):
    graphs = small_non_simple_graphs() + [involution_model(n, n) for n in (9, 30)]  # k = 3
    graphs += [random_permutation_model(n, 3, seed=n) for n in (9, 30)]  # k = 6
    for g in graphs:
        n = g.n
        for size in {1, n, n * n // 3}:
            cells = rng.choice(n * n, size, replace=False)
            assert smoothing_gap(g, cells) == float(_exact_gap(g, cells))
        assert smoothing_gap(g, np.arange(0)) == 0.0
    with pytest.raises(ValueError, match="no generators"):
        smoothing_gap(random_permutation_model(5, 0, 0), np.arange(5))


def test_smoothing_gap_is_correctly_rounded_where_the_float_sum_is_not():
    # k = 6 and one cell whose 6 images are distinct cells outside it: the
    # gap is 1 + 6 / 6^2 = 7/6, and the float sum of the 1/36 terms lands
    # one ulp below it
    g = random_permutation_model(5, 3, seed=0)
    x, y = divmod(1, g.n)
    images = g.actions[:, x] * g.n + g.actions[:, y]
    assert len(set(images.tolist()) - {1}) == 6
    assert smoothing_gap(g, [1]).hex() == float(Fraction(7, 6)).hex() == "0x1.2aaaaaaaaaaabp+0"
    assert _float_gap(g, [1]).hex() == "0x1.2aaaaaaaaaaaap+0"


def test_smoothing_gap_keeps_the_float_sum_bits_for_k_a_power_of_two(rng):
    # for k = 2, 4, 8 every term of the float sum is a multiple of 1/k^2, so
    # the sum is exact and equals the correctly rounded gap bit for bit
    for pairs in (1, 2, 4):
        for n in (5, 17, 40):
            g = random_permutation_model(n, pairs, seed=n + pairs)
            for size in {1, n, n * n // 3}:
                cells = rng.choice(n * n, size, replace=False)
                assert smoothing_gap(g, cells).hex() == _float_gap(g, cells).hex()


def _float_steps(g, cells, steps, divisor):
    """Per step the product graph's gathers of the float64 indicator of
    ``cells`` summed in symbol order, then divided by ``divisor``: k gives
    the averages ``M^steps chi``, 1 the float64 walk counts."""
    prod_actions = product_graph(g, g).actions
    x = np.zeros(g.n * g.n)
    x[cells] = 1.0
    for _ in range(steps):
        total = x[prod_actions[0]]
        for p in prod_actions[1:]:
            total += x[p]
        x = total / divisor
    return x


@pytest.mark.parametrize("share", [0, math.inf])
def test_smooth_counts_scale_to_the_float_averages_for_k_a_power_of_two(rng, monkeypatch, share):
    # dividing by k is exact for k = 2, 4, 8: while k^steps <= 2^53 the
    # averages are exact, and past 2^63 the float64 counts round as the
    # averages do, scaled by k^steps (in between only the counts are exact)
    monkeypatch.setattr(expansion, "_FRONTIER_SHARE", share)
    for pairs, all_steps in ((1, (1, 10, 30, 31, 40, 53, 63, 70)), (2, (3, 10, 15, 16, 26, 32, 35)), (4, (10, 17, 21))):
        g = random_permutation_model(9, pairs, seed=pairs)
        k = len(g.gens)
        cells = rng.choice(g.n * g.n, 5, replace=False)
        for steps in all_steps:
            values, _ = smooth(g, cells, steps)
            assert values.dtype == expansion._count_dtype(k, steps)
            scaled = values / float(k) ** steps
            assert np.array_equal(scaled.view(np.int64), _float_steps(g, cells, steps, k).view(np.int64))


def test_smooth_counts_fall_back_to_float64_past_2_to_the_63(rng):
    # k = 3 (a self-inverse symbol and a pair): 3^39 < 2^63 <= 3^40
    g = small_non_simple_graphs()[0]
    n = g.n
    assert [expansion._count_dtype(3, s) for s in (19, 20, 39, 40)] == [np.int32, np.int64, np.int64, np.float64]
    assert expansion._count_dtype(1, 10**9) == np.int32
    prod_actions = product_graph(g, g).actions
    cells = rng.choice(n * n, 4, replace=False)
    exact = np.zeros(n * n, dtype=object)  # Python integers never overflow
    exact[cells] = 1
    for steps in range(1, 46):
        exact = sum(exact[p] for p in prod_actions)
        values, _ = smooth(g, cells, steps)
        if steps < 40:
            assert values.dtype == (np.int32 if steps < 20 else np.int64)
            assert values.tolist() == exact.tolist()
        else:
            assert values.dtype == np.float64
            assert np.array_equal(values.view(np.int64), _float_steps(g, cells, steps, 1).view(np.int64))
            assert np.allclose(values, exact.astype(np.float64), rtol=1e-12, atol=0)


def test_smooth_rejects_a_graph_without_generators():
    with pytest.raises(ValueError, match="no generators"):
        smooth(random_permutation_model(5, 0, 0), np.arange(5), 3)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
def test_a_freed_large_array_leaves_the_resident_set():
    # a freed 16 MB block lifts glibc's dynamic mmap threshold above 4 MB;
    # the fixed threshold keeps the next 4 MB array mapped apart, so freeing
    # it lowers the resident set instead of leaving it in the brk heap
    def resident() -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

    block = np.ones(1 << 22, dtype=np.int32)
    del block
    block = np.ones(1 << 20, dtype=np.int32)
    before = resident()
    del block
    assert before - resident() >= 3 << 20
