import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import GeneratorSet, cayley_graph, make_labeled_graph
from soficlab.almost_auto import (
    ImprovementConfig,
    ImprovementWorkspace,
    VertexMap,
    defect_of_map,
    label_automorphisms,
)
from soficlab import almost_auto, clusters
from soficlab.clusters import (
    _check_associativity_inequality,
    _checked_improvement,
    _Closure,
    _locate,
    _Representatives,
    cluster_group,
    dichotomy_check,
    group_invariants,
    lef_certificate,
)
from soficlab.errors import (
    ClosureFailure,
    CollisionFailure,
    DefectTooLarge,
    HypothesisViolation,
    MultiplicativityFailure,
    NonPositiveCheeger,
    NotBijective,
)
from soficlab.sofic import Word, random_permutation_model, word_action
from soficlab import groups

from conftest import NON_ASSOCIATIVE_LOOP, cycle_graph, two_cycles


def hamming(c1, c2):
    """Oracle: the number of vertices where the two maps disagree."""
    return int(np.count_nonzero(c1.images != c2.images))


def brute_force_automorphisms(g):
    """Oracle: try every bijection of the vertex set."""
    out = []
    for images in permutations(range(g.n)):
        c = VertexMap(images)
        if defect_of_map(g, c).bad_edges == 0:
            out.append(c)
    return out


def test_dichotomy_exact_automorphisms():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    maps = [VertexMap(table[:, e]) for e in range(6)]
    report = dichotomy_check(g, 0.0, maps, h=1.5)
    assert report.ok and report.pairs_checked == 15


def test_dichotomy_single_map_vacuous():
    report = dichotomy_check(cycle_graph(6), 0.0, [VertexMap.identity(6)], h=0.5)
    assert report.ok and report.pairs_checked == 0


def test_dichotomy_refuses_nonpositive_h():
    with pytest.raises(NonPositiveCheeger):
        dichotomy_check(two_cycles(6), 0.0, [VertexMap.identity(12)], h=0.0)


def test_dichotomy_reports_violations():
    # disconnected graph: rotating one component is an exact automorphism at
    # mid-range distance, a counterexample to the expander hypothesis
    g = two_cycles(5)
    half_turn = VertexMap(list(range(5)) + [6, 7, 8, 9, 5])
    report = dichotomy_check(g, 0.0, [VertexMap.identity(10), half_turn], h=1.0)
    assert report.violations == [(0, 1, 5)]


@pytest.mark.parametrize("h", [float("nan"), float("inf")])
def test_dichotomy_refuses_non_finite_h(h):
    # with h = 1 this pair is the violation (0, 1, 5); NaN used to hide it
    g = two_cycles(5)
    half_turn = VertexMap(list(range(5)) + [6, 7, 8, 9, 5])
    with pytest.raises(NonPositiveCheeger, match="positive finite"):
        dichotomy_check(g, 0.0, [VertexMap.identity(10), half_turn], h=h)


def _reference_violations(maps, in_band):
    """The double loop over pairs that the vectorised helper replaced."""
    out = []
    for i in range(len(maps)):
        for j in range(i + 1, len(maps)):
            d = hamming(maps[i], maps[j])
            if in_band(d):
                out.append((i, j, d))
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pairwise_helpers_match_the_double_loops(data):
    # maps scattered around a few centres, some moved into the forbidden band
    n = data.draw(st.integers(min_value=3, max_value=16))
    g = cycle_graph(n)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    centres = [rng.permutation(n) for _ in range(data.draw(st.integers(1, 3)))]
    maps = []
    for _ in range(data.draw(st.integers(0, 7))):
        images = centres[int(rng.integers(len(centres)))].copy()
        moved = rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)
        images[moved] = images[rng.permutation(moved)]
        maps.append(VertexMap(images))
    if data.draw(st.booleans()) and maps:
        maps.append(maps[0])  # a duplicate map
    delta = 2.0 * len(g.gens)  # every map qualifies, so only the distances matter
    h = 2.0 * delta / data.draw(st.floats(min_value=0.02, max_value=0.6))  # threshold 2 delta n / h
    report = dichotomy_check(g, delta, maps, h)
    assert report.violations == _reference_violations(maps, lambda d: report.threshold < d < n - report.threshold)


def test_locate_finds_the_single_close_representative():
    reps = np.stack([np.arange(10), np.roll(np.arange(10), 1)])
    near = np.arange(10)
    near[[0, 1]] = near[[1, 0]]
    assert _locate(reps, near) == 0
    assert _locate(reps, np.roll(np.arange(10), 5)) is None
    assert _locate(reps[:0], np.arange(10)) is None


def test_locate_rejects_two_close_representatives():
    near = np.arange(10)
    near[[0, 1]] = near[[1, 0]]
    reps = np.stack([np.arange(10), near])
    expected = r"representatives 0 and 1 \(distances 0 and 2; n = 10, n/5 = 2, 4n/5 = 8\)"
    with pytest.raises(HypothesisViolation, match=expected):
        _locate(reps, np.arange(10))


def test_locate_rejects_forbidden_band():
    mid = np.arange(10)
    mid[[0, 1, 2, 3]] = mid[[1, 0, 3, 2]]  # distance 4, inside (2, 8]
    reps = np.stack([np.roll(np.arange(10), 5), np.arange(10)])
    expected = r"distance 4 to representative 1 falls in \(n/5, 4n/5\] \(n = 10, n/5 = 2, 4n/5 = 8\)"
    with pytest.raises(HypothesisViolation, match=expected):
        _locate(reps, mid)


def test_closure_rejects_improvement_that_moves_too_far():
    g = cycle_graph(20)
    c = np.roll(np.arange(20), -3)
    c[:6] = c[:6][::-1]  # improve restores the translation, moving 6 > n/5 points
    closure = _Closure(20, _checked_improvement(g, 0.0, ImprovementConfig()), bound=10)
    expected = r"moved a composition by distance 6 > n/5 \(n = 20, n/5 = 4, 4n/5 = 16\)"
    with pytest.raises(HypothesisViolation, match=expected):
        closure.product(closure.intern(c), closure.intern(np.arange(20)))


def test_cluster_group_z5_is_cyclic():
    g = cycle_graph(5)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    assert group_invariants(cg) == (5, [1, 5, 5, 5, 5], True)


def test_cluster_group_s3_is_nonabelian_order_6():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    seeds = brute_force_automorphisms(g)
    assert len(seeds) == 6
    cg = cluster_group(g, 0.0, seeds, ImprovementConfig())
    order, element_orders, abelian = group_invariants(cg)
    assert (order, element_orders, abelian) == (6, [1, 2, 2, 2, 3, 3], False)
    assert not np.array_equal(cg.table, cg.table.T)


def test_cluster_group_identity_only_seed():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    cg = cluster_group(g, 0.0, [VertexMap.identity(6)], ImprovementConfig())
    assert group_invariants(cg) == (1, [1], True)


def test_cluster_group_validates_preconditions():
    g = cycle_graph(6)
    with pytest.raises(NotBijective):
        cluster_group(g, 1.0, [VertexMap([0, 0, 1, 2, 3, 4])], ImprovementConfig())
    with pytest.raises(DefectTooLarge):
        cluster_group(g, 0.0, [VertexMap([1, 0, 2, 3, 4, 5])], ImprovementConfig())


def test_cluster_group_table_invariants():
    g = cycle_graph(7)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    k = cg.order
    assert np.array_equal(cg.table[cg.identity_index], np.arange(k))
    assert np.array_equal(cg.table[:, cg.identity_index], np.arange(k))
    for i in range(k):
        assert cg.inverse_map[cg.inverse_map[i]] == i
        assert cg.table[i, cg.inverse_map[i]] == cg.identity_index
    for a in range(k):
        for b in range(k):
            for c in range(k):
                assert cg.table[cg.table[a, b], c] == cg.table[a, cg.table[b, c]]
    # representatives satisfy the stored defect bound
    for cl in cg.clusters:
        assert defect_of_map(g, cl.representative).bad_edges <= cg.delta * g.n


def test_cluster_group_deterministic():
    g = cycle_graph(5)
    seeds = label_automorphisms(g)
    a = cluster_group(g, 0.0, seeds, ImprovementConfig()).as_dict()
    b = cluster_group(g, 0.0, seeds, ImprovementConfig()).as_dict()
    assert a == b


def test_closure_does_not_cache_failed_improvements():
    g = cycle_graph(20)
    c = np.roll(np.arange(20), -3)
    c[:6] = c[:6][::-1]
    checked = _checked_improvement(g, 0.0, ImprovementConfig())
    inputs = []

    def improved(row):
        inputs.append(row.tobytes())
        return checked(row)

    closure = _Closure(20, improved, bound=10)
    a, b = closure.intern(c), closure.intern(np.arange(20))
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="moved a composition"):
            closure.product(a, b)
    assert closure.memo == {}
    assert closure.pairs[a, b] == -1
    assert inputs == [c.tobytes()] * 2  # asked again: the failure was not stored


def test_closure_pair_table_survives_growth():
    # the second request for a pair is answered by the pair table, also after
    # the pool and the table have grown past their initial 16 rows
    closure = _Closure(10, _improvement({}), bound=10)
    a, b = closure.intern(np.roll(np.arange(10), 1)), closure.intern(np.roll(np.arange(10), 2))
    p = closure.product(a, b)
    assert closure.pool[p].tolist() == np.roll(np.arange(10), 3).tolist()
    size = len(closure.pool)
    rng = np.random.default_rng(3)
    while len(closure.ids) <= size:
        closure.intern(rng.permutation(10))
    assert len(closure.pool) > size and closure.pairs.shape == (len(closure.pool),) * 2
    assert closure.product(a, b) == p
    assert len(closure.memo) == 1


def test_closure_bound_raises_closure_failure():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    with pytest.raises(ClosureFailure, match="closure exceeded 2 clusters"):
        cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig(), closure_bound=2)


def _stubbed_cluster_group(monkeypatch, g, seeds, overrides):
    """``cluster_group`` with ``_improvement(overrides)`` as its checked improvement."""
    monkeypatch.setattr(clusters, "_checked_improvement", lambda g, delta, cfg: _improvement(overrides))
    return cluster_group(g, 1.0, seeds, ImprovementConfig())


def test_cluster_group_refuses_an_identity_that_does_not_act_as_one(monkeypatch):
    # Z2 on 10 points: the inputs r.e and e.r are both r, which improves to e
    g = cycle_graph(10)
    e, r = np.arange(10), np.roll(np.arange(10), -5)
    with pytest.raises(HypothesisViolation, match="^identity cluster does not act as the identity$"):
        _stubbed_cluster_group(monkeypatch, g, [VertexMap(e), VertexMap(r)], {r.tobytes(): e})


def test_cluster_group_refuses_inverses_inconsistent_with_the_table(monkeypatch):
    # Z2 on 10 points with r.r read as r: the identity's row and column hold,
    # but r, its own inverse, does not multiply with it to the identity
    products = _Representatives.products

    def skewed(self):
        table, prods = products(self)
        table[1, 1] = 1
        return table, prods

    monkeypatch.setattr(_Representatives, "products", skewed)
    g = cycle_graph(10)
    seeds = [VertexMap(np.arange(10)), VertexMap(np.roll(np.arange(10), -5))]
    with pytest.raises(HypothesisViolation, match="^inverse map is inconsistent with the table$"):
        cluster_group(g, 0.0, seeds, ImprovementConfig())


def test_cluster_group_refuses_a_non_associative_table(monkeypatch):
    # five pairwise far involutions whose product inputs improve along the
    # non-associative loop; each is its own inverse, as in the loop, so only
    # associativity fails
    loop = NON_ASSOCIATIVE_LOOP
    n = 20
    rng = np.random.default_rng(0)
    reps = [np.arange(n)]
    for _ in range(4):
        p = rng.permutation(n)
        r = np.empty(n, dtype=np.int64)
        r[p[::2]], r[p[1::2]] = p[1::2], p[::2]
        reps.append(r)
    assert all(5 * np.count_nonzero(reps[i] != reps[j]) > 4 * n for i in range(5) for j in range(i))
    overrides = {reps[i][reps[j]].tobytes(): reps[loop[i][j]] for i in range(1, 5) for j in range(1, 5) if i != j}
    assert len(overrides) == 12 and not overrides.keys() & {r.tobytes() for r in reps}
    with pytest.raises(HypothesisViolation, match="^cluster multiplication table is not associative$"):
        _stubbed_cluster_group(monkeypatch, cycle_graph(n), [VertexMap(r) for r in reps], overrides)


def _improvement(overrides):
    """A stand-in for the checked improvement: the map itself, unless
    ``overrides`` (input bytes -> image row, or an exception) says otherwise."""

    def improved(row):
        out = overrides.get(np.ascontiguousarray(row, dtype=np.int64).tobytes(), row)
        if isinstance(out, Exception):
            raise out
        return np.asarray(out, dtype=np.int64)

    return improved


def _representatives(stack, improved):
    """A closure with the checked improvement ``improved`` and the rows of
    ``stack`` as its final representatives."""
    closure = _Closure(stack.shape[1], improved, bound=len(stack))
    return closure, _Representatives(closure, [closure.intern(row) for row in stack])


def _counted(closure):
    """Count the ``product`` calls of ``closure`` from now on."""
    counts = [0]
    product = closure.product

    def counting_product(i, j):
        counts[0] += 1
        return product(i, j)

    closure.product = counting_product
    return counts


def _index_path(stack, improved):
    """Table build and associativity inequality as ``cluster_group`` runs them;
    returns the table and the inequality's ``product`` calls, i.e. the
    requests that the index identities did not answer."""
    closure, reps = _representatives(stack, improved)
    table, prods = reps.products()
    sent = _counted(closure)
    _check_associativity_inequality(reps, table, prods)
    return table, sent[0]


def _z2_on_ten_points():
    """Representatives {id, x -> x+5 mod 10}; the product input r0.r1 = r1
    improves to r1 with points 0 and 1 swapped, which improves to the identity."""
    reps = np.stack([np.arange(10), np.roll(np.arange(10), -5)])
    moved = reps[1][[1, 0, *range(2, 10)]]  # r1 . (0 1): within n/5 of r1, not byte-equal
    return reps, moved


def test_associativity_inequality_passes_on_exact_products():
    reps, _ = _z2_on_ten_points()
    table, sent = _index_path(reps, _improvement({}))
    assert table.tolist() == [[0, 1], [1, 0]]
    assert sent == 0  # all 2k^3 answered by index identities


def test_associativity_inequality_names_the_first_failing_triple():
    reps, moved = _z2_on_ten_points()
    overrides = {reps[1].tobytes(): moved, moved.tobytes(): reps[0]}
    # (0, 0, 1): a(bc) improves r0 . P[0, 1] = moved to r0, (ab)c is P[0, 1] = moved,
    # and the two differ everywhere
    expected = (
        r"associativity inequality fails on triple \(0, 0, 1\) "
        r"\(distance 10 > 4n/5; n = 10, n/5 = 2, 4n/5 = 8\)"
    )
    improved = _improvement(overrides)
    _, products = _reference_table(reps, improved)
    with pytest.raises(HypothesisViolation, match=expected):
        _reference_associativity(reps, products, lambda rows: np.array([improved(r) for r in rows]))
    with pytest.raises(HypothesisViolation, match=expected):
        _index_path(reps, improved)


def _reference_table(stack, improved):
    """Per-product ``_locate`` table build over a k x k x n product stack."""
    k, n = stack.shape
    table = np.empty((k, k), dtype=np.int64)
    products = np.empty((k, k, n), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            products[i, j] = improved(stack[i][stack[j]])
            idx = _locate(stack, products[i, j])
            if idx is None:
                raise HypothesisViolation("map lies within n/5 of 0 representatives")
            table[i, j] = idx
    return table, products


def _reference_associativity(reps, products, improve_rows):
    """The byte-path check: one batch of 2k^2 inputs per a, no index identities."""
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
                f"(distance {dist[failing[0]]} > 4n/5; n = {n}, n/5 = {n / 5:g}, 4n/5 = {4 * n / 5:g})"
            )


def _outcome(fn):
    try:
        return "ok", fn()
    except HypothesisViolation as exc:
        return "raises", str(exc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_index_path_matches_the_byte_path(data):
    # representatives: the left-regular action of a small group on |G| x s
    # points (pairwise at distance n), or random permutations with a random,
    # usually non-associative, product table
    table, _ = groups.preset_group(data.draw(st.sampled_from(["z1", "z2", "z3", "z2xz2", "s3"])))
    k = len(table)
    s = data.draw(st.integers(min_value=-(-10 // k), max_value=max(2, 24 // k)))
    n = k * s  # at least 10, so a transposition stays within n/5
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    stack = np.stack([(table[x][:, None] * s + np.arange(s)).ravel() for x in range(k)])
    target = table  # the cluster each product input should improve into
    if data.draw(st.booleans()):
        scattered = np.stack([rng.permutation(n) for _ in range(k)])
        if all(5 * hamming(VertexMap(x), VertexMap(y)) > 4 * n for i, x in enumerate(scattered) for y in scattered[:i]):
            stack, target = scattered, rng.integers(k, size=(k, k))

    def perturbed(row, largest):
        # row . pi for a cycle pi through 2..largest points
        points = rng.choice(n, size=int(rng.integers(2, max(2, largest) + 1)), replace=False)
        pi = np.arange(n)
        pi[points] = np.roll(points, 1)
        return row[pi]

    def failure(row):
        return HypothesisViolation(f"improvement refused {row[:4].tolist()}")

    # each product input improves to its target representative, often moved
    # within n/5 of it; at most one lands far away or fails
    overrides = {}
    for i in range(k):
        for j in range(k):
            landing = stack[target[i, j]]
            overrides[stack[i][stack[j]].tobytes()] = perturbed(landing, n // 5) if data.draw(st.booleans()) else landing
    i, j = (int(x) for x in rng.integers(k, size=2))
    spoilt = stack[i][stack[j]]
    spoil = data.draw(st.sampled_from([None, None, None, "far", "refused"]))
    if spoil == "far":
        overrides[spoilt.tobytes()] = perturbed(stack[target[i, j]], n)
    elif spoil == "refused":
        overrides[spoilt.tobytes()] = failure(spoilt)
    improved = _improvement(overrides)
    reference = _outcome(lambda: _reference_table(stack, improved))
    index = _outcome(lambda: _representatives(stack, improved)[1].products()[0])
    if reference[0] == "raises":
        assert index == reference
        return
    ref_table, products = reference[1]
    assert np.array_equal(index[1], ref_table)

    # second-level inputs a.P[b, c] and P[a, b].c that are not table inputs:
    # send a few far away or make their improvement fail
    table_inputs = {(x[y]).tobytes() for x in stack for y in stack}
    for _ in range(data.draw(st.integers(0, 3))):
        a, b, c = (int(x) for x in rng.integers(k, size=3))
        row = stack[a][products[b, c]] if data.draw(st.booleans()) else products[a, b][stack[c]]
        if row.tobytes() in table_inputs:
            continue
        kind = data.draw(st.sampled_from(["far", "moved", "moved", "refused"]))
        if kind == "far":
            overrides[row.tobytes()] = stack[int(rng.integers(k))]
        elif kind == "moved":
            overrides[row.tobytes()] = perturbed(row, n // 5)
        else:
            overrides[row.tobytes()] = failure(row)
    improved = _improvement(overrides)
    requests = []

    def improve_rows(rows):
        requests.append(len(rows))
        return np.array([improved(r) for r in rows], dtype=np.int64).reshape(rows.shape)

    reference = _outcome(lambda: _reference_associativity(stack, products, improve_rows))
    index = _outcome(lambda: _index_path(stack, improved))
    if reference[0] == "raises":
        assert index == reference
    else:
        assert index[0] == "ok" and np.array_equal(index[1][0], ref_table)
        assert sum(requests) == 2 * k**3
        # a pair (b, c) is inexact when P[b, c] is not its representative; the
        # inequality sends a.P[b, c] for every a and P[b, c].a for every a,
        # 2k inputs per inexact pair, and the index identities answer the rest
        inexact = sum(not np.array_equal(products[b, c], stack[ref_table[b, c]]) for b in range(k) for c in range(k))
        assert index[1][1] == 2 * k * inexact


def test_representatives_closer_than_4n_over_5_are_refused():
    near = np.roll(np.arange(10), -5)
    near[[0, 1, 2, 3]] = near[[1, 0, 3, 2]]  # distance 4 from the half-turn, 10 from the identity
    stack = np.stack([np.arange(10), np.roll(np.arange(10), -5), near])
    expected = r"representatives 1 and 2 lie at distance 4 <= 4n/5 \(n = 10, n/5 = 2, 4n/5 = 8\)"
    with pytest.raises(HypothesisViolation, match=expected):
        _representatives(stack, _improvement({}))


def _counting_improve(monkeypatch) -> list[bytes]:
    """Record the input of every ``improve`` call the closure makes."""
    calls = []
    original = clusters.improve

    def counting_improve(g, c, cfg, workspace=None):
        calls.append(c.images.tobytes())
        return original(g, c, cfg, workspace=workspace)

    monkeypatch.setattr(clusters, "improve", counting_improve)
    return calls


def _corrupted_s4_seeds(g):
    # every third automorphism of Cay(S4) has two images swapped
    rng = np.random.default_rng(7)
    seeds = []
    for i, m in enumerate(label_automorphisms(g)):
        images = m.images.copy()
        if i % 3 == 1:
            a, b = rng.choice(g.n, size=2, replace=False)
            images[[a, b]] = images[[b, a]]
        seeds.append(VertexMap(images))
    return seeds


def test_cluster_group_improves_each_distinct_input_once(monkeypatch):
    # every distinct input is an exact automorphism of Cay(S4), a fixed
    # point that the closure returns without calling improve; the counters
    # still count the memo misses
    calls = _counting_improve(monkeypatch)
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    assert calls == []
    assert cg.as_dict()["counters"] == {
        "improve_requests": 28_800,
        "improve_calls": 24,
        "closure_rounds": 2,
    }
    # corrupted seeds: 24 of the 611 distinct inputs are exact automorphisms,
    # the other 587 go through improve once each
    cg = cluster_group(g, 0.5, _corrupted_s4_seeds(g), ImprovementConfig())
    assert len(calls) == len(set(calls)) == 587
    assert cg.as_dict()["counters"] == {
        "improve_requests": 28_800,
        "improve_calls": 611,
        "closure_rounds": 2,
    }


def _product_calls_per_phase(monkeypatch) -> Counter:
    """Count the ``_Closure.product`` calls that the closure run, the table
    build and the associativity inequality make."""
    calls = Counter()
    phase = [None]

    def in_phase(name, fn):
        def wrapped(*args):
            phase[0] = name
            try:
                return fn(*args)
            finally:
                phase[0] = None

        return wrapped

    product = _Closure.product

    def counting_product(self, i, j):
        calls[phase[0]] += 1
        return product(self, i, j)

    monkeypatch.setattr(_Closure, "product", counting_product)
    monkeypatch.setattr(_Closure, "run", in_phase("run", _Closure.run))
    monkeypatch.setattr(_Representatives, "products", in_phase("table", _Representatives.products))
    monkeypatch.setattr(
        clusters, "_check_associativity_inequality", in_phase("inequality", _check_associativity_inequality)
    )
    return calls


def test_each_ordered_pair_of_clusters_is_asked_once_per_phase(monkeypatch):
    # improve_requests is computed as 2k^3 + 2k^2: the closure and the table
    # each ask the k^2 ordered pairs once, and the inequality asks product
    # only for what the index identities leave, at most 2k^3
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    calls = _product_calls_per_phase(monkeypatch)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    assert cg.order == 24
    assert dict(calls) == {"run": 576, "table": 576}  # exact products: the inequality sends none
    calls.clear()
    cg = cluster_group(g, 0.5, _corrupted_s4_seeds(g), ImprovementConfig())
    assert cg.order == 24
    assert dict(calls) == {"run": 576, "table": 576, "inequality": 9_216}
    assert cg.improve_requests == 28_800


def test_closure_improves_inputs_when_not_every_vertex_is_good(monkeypatch):
    # on the random 2-pair model the identity is an exact automorphism, but
    # few vertices match the ball of vertex 0, so it is no proven fixed point
    g = random_permutation_model(40, 2, 3)
    ws = ImprovementWorkspace(g, ImprovementConfig())
    assert 0 < ws.good.cardinality < g.n
    calls = _counting_improve(monkeypatch)
    cg = cluster_group(g, 0.0, [VertexMap.identity(g.n)], ImprovementConfig())
    assert cg.order == 1
    assert calls == [np.arange(g.n).tobytes()]


def test_closure_of_fixed_points_never_runs_lambda2(monkeypatch):
    # the workspace's alpha is lazy and only improve reads it
    def no_lambda2(*args, **kwargs):
        raise AssertionError("lambda2 is not needed when every input is a fixed point")

    monkeypatch.setattr(almost_auto, "lambda2", no_lambda2)
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    assert cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig()).order == 24


def test_fixed_points_still_face_the_hypothesis_checks(monkeypatch):
    # a negative delta fails the bad-edge check, also for a skipped input
    calls = _counting_improve(monkeypatch)
    g = cycle_graph(10)
    closure = _Closure(10, _checked_improvement(g, -0.5, ImprovementConfig()), bound=10)
    identity = closure.intern(np.arange(10))
    with pytest.raises(HypothesisViolation, match=r"improvement left 0 bad edges, above delta\*n = -5"):
        closure.product(identity, identity)
    assert calls == []


# cluster_group(...).as_dict() without "counters", as computed before the
# improvement memo existed; the memo must not change any of it
PINNED_S3 = {
    "order": 6,
    "element_orders": [1, 2, 2, 2, 3, 3],
    "abelian": False,
    "identity_index": 0,
    "inverse_map": [0, 1, 2, 4, 3, 5],
    "table": [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 4, 0, 5, 1, 3],
        [3, 5, 1, 4, 0, 2],
        [4, 2, 5, 0, 3, 1],
        [5, 3, 4, 1, 2, 0],
    ],
    "representatives": [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 4, 0, 5, 1, 3],
        [3, 5, 1, 4, 0, 2],
        [4, 2, 5, 0, 3, 1],
        [5, 3, 4, 1, 2, 0],
    ],
}
Z7_ROWS = [[(i + j) % 7 for j in range(7)] for i in range(7)]
PINNED_Z7 = {
    "order": 7,
    "element_orders": [1, 7, 7, 7, 7, 7, 7],
    "abelian": True,
    "identity_index": 0,
    "inverse_map": [0, 6, 5, 4, 3, 2, 1],
    "table": Z7_ROWS,
    "representatives": Z7_ROWS,
}
# sha256 of json.dumps(doc, sort_keys=True) for the Cay(S4) document
PINNED_S4_SHA256 = "c5922cedfa9a8fd9687714fce60463ca6bb89e58574faf65b9330a8c30c77833"


def _cluster_document(name, gens=None):
    table, default_gens = groups.preset_group(name)
    g = cayley_graph(table, gens or default_gens)
    doc = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig()).as_dict()
    doc.pop("counters")
    return doc


def test_cluster_group_documents_are_pinned():
    assert _cluster_document("s3") == PINNED_S3
    assert _cluster_document("z7", [1, 6]) == PINNED_Z7
    s4 = json.dumps(_cluster_document("s4"), sort_keys=True).encode()
    assert hashlib.sha256(s4).hexdigest() == PINNED_S4_SHA256


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("block_cells", [clusters._BLOCK_CELLS, 1], ids=["default-blocks", "one-row-blocks"])
def test_cluster_group_on_corrupted_seeds_is_pinned(monkeypatch, block_cells):
    # every third automorphism of Cay(S4) has two images swapped, so some
    # representatives are corrupted and the improved products differ from
    # them byte for byte; sha256 (counters included) computed with the
    # per-product _locate table and the byte-path associativity check.
    # With one cell per block, _distances and the inequality's distance loop
    # compare one row per block.
    monkeypatch.setattr(clusters, "_BLOCK_CELLS", block_cells)
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    cg = cluster_group(g, 0.5, _corrupted_s4_seeds(g), ImprovementConfig())
    assert sum(defect_of_map(g, cl.representative).bad_edges > 0 for cl in cg.clusters) == 8
    doc = cg.as_dict()
    assert doc["counters"] == {"improve_requests": 28_800, "improve_calls": 611, "closure_rounds": 2}
    assert _sha256(doc) == "7c941bd8917cc8e1255c0a875eb96996c5271b8ab11d2285101a7be5b845d451"


def test_seed_clusters_are_the_seeds_located_against_the_representatives():
    # corrupted Cay(S4): 6 of the 24 seeds are not representatives, so their
    # clusters come from _locate rather than from a representative's own index
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    seeds = _corrupted_s4_seeds(g)
    cg = cluster_group(g, 0.5, seeds, ImprovementConfig())
    stack = np.stack([cl.representative.images for cl in cg.clusters])
    assert cg.seed_clusters == [_locate(stack, m.images) for m in seeds]
    representatives = {cl.representative.key() for cl in cg.clusters}
    assert sum(m.key() not in representatives for m in seeds) == 6


@pytest.mark.parametrize(
    "name, picks, digest",
    [
        ("z7", [1], "18b6f9500985ada116de5e7c8021c0257acdcf9755e08e9e017a5fdae5620bb1"),
        ("s4", [3, 20, 5], "33283bd4b697df3dc51c1f3c71965f5881e5346b7ac11d045979f40479760bc3"),
    ],
)
def test_closure_grown_from_a_few_seeds_is_pinned(name, picks, digest):
    # several closure rounds, each adding the products of new representatives
    # with old ones in both orders; sha256 (counters included) computed with
    # the per-pair closure loop
    table, gens = groups.preset_group(name)
    g = cayley_graph(table, gens)
    autos = label_automorphisms(g)
    assert _sha256(cluster_group(g, 0.0, [autos[i] for i in picks], ImprovementConfig()).as_dict()) == digest


def test_cluster_group_s5_document_is_pinned():
    # the full Cay(S5) document, counters included; sha256 computed with the
    # byte-keyed closure, before maps were interned as ids
    table, gens = groups.preset_group("s5")
    g = cayley_graph(table, gens)
    doc = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig()).as_dict()
    assert _sha256(doc) == "1fd6b97cb5a5b7dd978d56af2a256173b3c17080ae45f88da09968c4ae3b0664"


def test_cluster_group_s5_within_budget():
    start = time.perf_counter()
    table, gens = groups.preset_group("s5")
    g = cayley_graph(table, gens)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    order, element_orders, abelian = group_invariants(cg)
    elapsed = time.perf_counter() - start
    assert (order, abelian) == (120, False)
    assert Counter(element_orders) == {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}
    assert cg.improve_calls == 120
    assert cg.improve_requests == 3_484_800  # 2k^3 + 2k^2, the closure's k^2 among the 2k^2
    assert elapsed < 3.0, f"Cay(S5) cluster group took {elapsed:.1f}s"


S6_RUN = """
import json, resource, time
from soficlab import cayley_graph, clusters, groups
from soficlab.almost_auto import ImprovementConfig, label_automorphisms
from soficlab.clusters import cluster_group, group_invariants

invoked = 0
original = clusters.improve

def counting_improve(*args, **kwargs):
    global invoked
    invoked += 1
    return original(*args, **kwargs)

clusters.improve = counting_improve
start = time.perf_counter()
table, gens = groups.preset_group("s6")
g = cayley_graph(table, gens)
cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
order, element_orders, abelian = group_invariants(cg)
print(json.dumps({
    "order": order, "element_orders": element_orders, "abelian": abelian,
    "improve_calls": cg.improve_calls, "improve_invocations": invoked, "seconds": time.perf_counter() - start,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


@pytest.mark.slow
def test_cluster_group_s6_within_budget():
    # k = n = 720, in a fresh process so that its peak RSS is this run's alone
    out = subprocess.run(
        [sys.executable, "-c", S6_RUN], capture_output=True, text=True, check=True, timeout=600,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert (result["order"], result["abelian"]) == (720, False)
    assert Counter(result["element_orders"]) == {1: 1, 2: 75, 3: 80, 4: 180, 5: 144, 6: 240}
    assert result["improve_calls"] == 720
    assert result["improve_invocations"] == 0  # every distinct input is an exact automorphism
    assert result["seconds"] < 60.0, f"Cay(S6) cluster group took {result['seconds']:.1f}s"
    assert result["peak_rss_mb"] < 1536, f"Cay(S6) cluster group peaked at {result['peak_rss_mb']:.0f} MB"


def test_group_invariants_examples():
    g = cycle_graph(5)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    order, element_orders, abelian = group_invariants(cg)
    assert order == 5 and element_orders == [1, 5, 5, 5, 5] and abelian


def test_lef_certificate_commuting_factor():
    # Cay(S3 x Z4): the Z4 translations commute with the S3 edges exactly
    table, gens = groups.preset_group("s3xz4")
    g = cayley_graph(table, gens)
    gamma = ["g8", "g12", "g16"]  # the embedded S3 generators
    assert len(gamma) == 3
    delta_symbol = next(s for s in g.gens.symbols if s not in gamma)
    f_words = [Word((), True), Word((delta_symbol,), True)]
    cert = lef_certificate(g, gamma, f_words, 0.0, ImprovementConfig())
    assert cert.status == "certified"
    assert cert.group_order == 4
    assert 4 in cert.element_orders
    clusters_of_f = [w["cluster"] for w in cert.witnesses[:2]]
    assert len(set(clusters_of_f)) == 2


def test_lef_certificate_s4xz5_is_pinned():
    # acceptance criterion 7's certificate; sha256 computed with the
    # byte-keyed closure, before maps were interned as ids
    table, gens = groups.preset_group("s4xz5")
    g = cayley_graph(table, gens)
    f_words = [Word((), True), Word(("g1",), True), Word(("g1", "g1"), True)]
    cert = lef_certificate(g, ["g30", "g45", "g90"], f_words, 0.0, ImprovementConfig())
    assert _sha256(cert.as_dict()) == "02ecfe842fe2293f4fea8740264a5cf93954368d85d51bc7ff073b168928c4a9"


def test_lef_certificate_witnesses_are_the_seed_clusters():
    # the words of the S4 x Z5 certificate and their concatenations, (), g1
    # up to g1^4, are the seeds of its cluster group, in witness order; each
    # cluster is the one _locate finds for the word map
    table, gens = groups.preset_group("s4xz5")
    g = cayley_graph(table, gens)
    f_words = [Word((), True), Word(("g1",), True), Word(("g1", "g1"), True)]
    cert = lef_certificate(g, ["g30", "g45", "g90"], f_words, 0.0, ImprovementConfig())
    clusters_of_words = [w["cluster"] for w in cert.witnesses]
    assert clusters_of_words == cert.group.seed_clusters
    stack = np.stack([cl.representative.images for cl in cert.group.clusters])
    located = [_locate(stack, word_action(g, Word(tuple(w["word"]), True))) for w in cert.witnesses]
    assert [len(w["word"]) for w in cert.witnesses] == [0, 1, 2, 3, 4]
    assert clusters_of_words == located


def test_lef_certificate_raises_multiplicativity_failure(monkeypatch):
    # on Cay(S3 x S3) the words g2, g3 certify a non-abelian group of order
    # 6, so the transposed cluster table answers g2 * g3 with g3 * g2
    g = cayley_graph(*groups.preset_group("s3xs3"))
    gamma = ["g12", "g18", "g24"]
    f_words = [Word(("g2",), True), Word(("g3",), True)]
    assert lef_certificate(g, gamma, f_words, 0.0, ImprovementConfig()).group_order == 6
    true_cluster_group = clusters.cluster_group

    def transposed(*args):
        cg = true_cluster_group(*args)
        return dataclasses.replace(cg, table=np.ascontiguousarray(cg.table.T))

    monkeypatch.setattr(clusters, "cluster_group", transposed)
    message = "cluster(g2) * cluster(g3) = 5, but cluster of the concatenation is 1"
    with pytest.raises(MultiplicativityFailure, match=re.escape(message)):
        lef_certificate(g, gamma, f_words, 0.0, ImprovementConfig())


def test_lef_certificate_trivial_word_set():
    table, gens = groups.preset_group("s3xz4")
    g = cayley_graph(table, gens)
    gamma = ["g8", "g12", "g16"]  # the embedded S3 generators
    cert = lef_certificate(g, gamma, [Word((), True)], 0.0, ImprovementConfig())
    assert cert.status == "certified"
    assert cert.group_order == 1


def test_lef_certificate_collision_on_trivial_action():
    # extra label acting as the identity: two distinct words share a cluster
    table, gens = groups.preset_group("s3")
    base = cayley_graph(table, gens)
    gens_v = GeneratorSet.from_pairs([(s, base.gens.inverse_symbol(s)) for s in base.gens.symbols] + [("v", "v")])
    g = make_labeled_graph(6, gens_v, list(base.actions) + [np.arange(6)])
    with pytest.raises(CollisionFailure):
        lef_certificate(g, list(base.gens.symbols), [Word((), True), Word(("v",), True)], 0.0, ImprovementConfig())


def test_lef_certificate_rejects_large_defect():
    h = random_permutation_model(40, 2, seed=8)
    with pytest.raises(DefectTooLarge):
        lef_certificate(h, ["s0", "s0'"], [Word((), True), Word(("s1",), True)], 0.01, ImprovementConfig())


def test_lef_certificate_rejects_gamma_letter_in_words():
    table, gens = groups.preset_group("s3xz4")
    g = cayley_graph(table, gens)
    gamma = ["g8", "g12", "g16"]  # the embedded S3 generators
    with pytest.raises(ValueError):
        lef_certificate(g, gamma, [Word((gamma[0],), True)], 0.0, ImprovementConfig())


@pytest.mark.parametrize("delta", [float("nan"), float("inf")])
def test_cluster_functions_reject_non_finite_delta(delta):
    # a NaN delta makes every "bad > delta * n" comparison false, so a map
    # with bad edges would pass as a delta-almost automorphism
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    corrupted = table[:, 1].copy()
    corrupted[[0, 3]] = corrupted[[3, 0]]
    maps = [VertexMap(table[:, 0]), VertexMap(corrupted)]
    assert defect_of_map(g, maps[1]).bad_edges > 0
    calls = [
        lambda: dichotomy_check(g, delta, maps, h=1.5),
        lambda: cluster_group(g, delta, maps, ImprovementConfig()),
        lambda: lef_certificate(cayley_graph(*groups.preset_group("s3xz4")), ["g8", "g12", "g16"], [Word((), True)],
                                delta, ImprovementConfig()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="delta"):
            call()
