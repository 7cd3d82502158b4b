import hashlib
import json
import time
from collections import Counter
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import GeneratorSet, cayley_graph, make_labeled_graph
from soficlab.almost_auto import ImprovementConfig, VertexMap, defect_of_map, label_automorphisms
from soficlab import clusters
from soficlab.clusters import (
    _check_associativity_inequality,
    _Closure,
    _locate,
    cluster_group,
    cluster_maps,
    dichotomy_check,
    group_invariants,
    hamming,
    lef_certificate,
)
from soficlab.errors import (
    ClosureFailure,
    CollisionFailure,
    DefectTooLarge,
    HypothesisViolation,
    LengthMismatch,
    NonPositiveCheeger,
    NotBijective,
    StructureViolation,
)
from soficlab.sofic import Word
from soficlab import groups

from conftest import cycle_graph, two_cycles


def brute_force_automorphisms(g):
    """Oracle: try every bijection of the vertex set."""
    out = []
    for images in permutations(range(g.n)):
        c = VertexMap(images)
        if defect_of_map(g, c).bad_edges == 0:
            out.append(c)
    return out


def test_hamming_examples():
    c = VertexMap([3, 1, 0, 2])
    assert hamming(c, c) == 0
    assert hamming(VertexMap.identity(6), VertexMap([1, 0, 2, 3, 4, 5])) == 2
    with pytest.raises(LengthMismatch):
        hamming(c, VertexMap.identity(6))


def test_hamming_distinct_translations_is_n():
    table, gens = groups.preset_group("s3")
    for a in range(6):
        for b in range(6):
            d = hamming(VertexMap(table[:, a]), VertexMap(table[:, b]))
            assert d == (0 if a == b else 6)


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_hamming_is_a_metric(data):
    n = data.draw(st.integers(min_value=1, max_value=12))
    perms = [data.draw(st.permutations(range(n))) for _ in range(3)]
    a, b, c = (VertexMap(p) for p in perms)
    assert hamming(a, b) >= 0
    assert hamming(a, b) == hamming(b, a)
    assert (hamming(a, b) == 0) == (a == b)
    assert hamming(a, c) <= hamming(a, b) + hamming(b, c)


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


def test_cluster_maps_translations_are_singletons():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    clusters = cluster_maps(g, 0.0, [VertexMap(table[:, e]) for e in range(6)])
    assert len(clusters) == 6
    assert all(len(cl.members) == 1 for cl in clusters)


def test_cluster_maps_groups_small_corruption():
    g = cycle_graph(12)
    base = VertexMap(np.roll(np.arange(12), -3))
    corrupted = base.images.copy()
    corrupted[[0, 1]] = corrupted[[1, 0]]
    clusters = cluster_maps(g, 0.5, [base, VertexMap(corrupted)])
    assert len(clusters) == 1
    assert len(clusters[0].members) == 2
    # representative is the lexicographically smallest member
    assert clusters[0].representative.key() == min(base.key(), tuple(corrupted.tolist()))


def test_cluster_maps_detects_gap_distances():
    g = two_cycles(5)
    half_turn = VertexMap(list(range(5)) + [6, 7, 8, 9, 5])
    with pytest.raises(StructureViolation) as exc:
        cluster_maps(g, 0.0, [VertexMap.identity(10), half_turn])
    assert exc.value.violations == [(0, 1, 5)]


def test_cluster_maps_validates_preconditions():
    g = cycle_graph(6)
    with pytest.raises(NotBijective):
        cluster_maps(g, 1.0, [VertexMap([0, 0, 1, 2, 3, 4])])
    with pytest.raises(DefectTooLarge):
        cluster_maps(g, 0.0, [VertexMap([1, 0, 2, 3, 4, 5])])


def test_locate_finds_the_single_close_representative():
    reps = np.stack([np.arange(10), np.roll(np.arange(10), 1)])
    near = np.arange(10)
    near[[0, 1]] = near[[1, 0]]
    assert _locate(reps, VertexMap(near)) == 0
    assert _locate(reps, VertexMap(np.roll(np.arange(10), 5))) is None
    assert _locate(reps[:0], VertexMap.identity(10)) is None


def test_locate_rejects_two_close_representatives():
    near = np.arange(10)
    near[[0, 1]] = near[[1, 0]]
    reps = np.stack([np.arange(10), near])
    expected = r"representatives 0 and 1 \(distances 0 and 2; n = 10, n/5 = 2, 4n/5 = 8\)"
    with pytest.raises(HypothesisViolation, match=expected):
        _locate(reps, VertexMap.identity(10))


def test_locate_rejects_forbidden_band():
    mid = np.arange(10)
    mid[[0, 1, 2, 3]] = mid[[1, 0, 3, 2]]  # distance 4, inside (2, 8]
    reps = np.stack([np.roll(np.arange(10), 5), np.arange(10)])
    expected = r"distance 4 to representative 1 falls in \(n/5, 4n/5\] \(n = 10, n/5 = 2, 4n/5 = 8\)"
    with pytest.raises(HypothesisViolation, match=expected):
        _locate(reps, VertexMap(mid))


def test_closure_rejects_improvement_that_moves_too_far():
    g = cycle_graph(20)
    c = np.roll(np.arange(20), -3)
    c[:6] = c[:6][::-1]  # improve restores the translation, moving 6 > n/5 points
    closure = _Closure(g, 0.0, ImprovementConfig(), bound=10)
    expected = r"moved a composition by distance 6 > n/5 \(n = 20, n/5 = 4, 4n/5 = 16\)"
    with pytest.raises(HypothesisViolation, match=expected):
        closure.improved(VertexMap(c))


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
        assert defect_of_map(g, cl.representative).bad_edges <= cl.delta * g.n


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
    closure = _Closure(g, 0.0, ImprovementConfig(), bound=10)
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="moved a composition"):
            closure.improved(VertexMap(c))
    assert closure.memo == {}
    assert (closure.requests, closure.calls) == (2, 2)


def test_closure_bound_raises_closure_failure():
    table, gens = groups.preset_group("s3")
    g = cayley_graph(table, gens)
    with pytest.raises(ClosureFailure, match="closure exceeded 2 clusters"):
        cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig(), closure_bound=2)


def _z2_on_ten_points():
    """Representatives {id, x -> x+5 mod 10} and their exact product stack."""
    reps = np.stack([np.arange(10), np.roll(np.arange(10), -5)])
    products = np.stack([[reps[i][reps[j]] for j in range(2)] for i in range(2)])
    return reps, products


def test_associativity_inequality_passes_on_exact_products():
    reps, products = _z2_on_ten_points()
    _check_associativity_inequality(reps, products, lambda rows: rows)


def test_associativity_inequality_names_the_first_failing_triple():
    reps, products = _z2_on_ten_points()
    products[0, 1] = reps[0]  # claims r0.r1 = r0: a(bc) and (ab)c differ everywhere for (0, 0, 1)
    expected = (
        r"associativity inequality fails on triple \(0, 0, 1\) "
        r"\(distance 10 > 4n/5; n = 10, n/5 = 2, 4n/5 = 8\)"
    )
    with pytest.raises(HypothesisViolation, match=expected):
        _check_associativity_inequality(reps, products, lambda rows: rows)


def test_cluster_group_improves_each_distinct_input_once(monkeypatch):
    calls = []
    original = clusters.improve

    def counting_improve(g, c, cfg, workspace=None):
        calls.append(c.images.tobytes())
        return original(g, c, cfg, workspace=workspace)

    monkeypatch.setattr(clusters, "improve", counting_improve)
    table, gens = groups.preset_group("s4")
    g = cayley_graph(table, gens)
    cg = cluster_group(g, 0.0, label_automorphisms(g), ImprovementConfig())
    assert len(calls) == len(set(calls)) == 24
    assert cg.as_dict()["counters"] == {
        "improve_requests": 28_800,
        "improve_calls": 24,
        "closure_rounds": 2,
    }


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
    assert elapsed < 30.0, f"Cay(S5) cluster group took {elapsed:.1f}s"


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
    g = cayley_graph(groups.cyclic_table(12), [1, 11, 6])
    gamma = ["g1", "g11"]
    # g6 is a gamma-almost-automorphism candidate that badly violates the
    # 1-step edges? no: translations commute on an abelian group, so corrupt
    # instead: use a non-commuting free model
    from soficlab.sofic import random_permutation_model

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
        lambda: cluster_maps(g, delta, maps),
        lambda: cluster_group(g, delta, maps, ImprovementConfig()),
        lambda: lef_certificate(cayley_graph(*groups.preset_group("s3xz4")), ["g8", "g12", "g16"], [Word((), True)],
                                delta, ImprovementConfig()),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="delta"):
            call()
