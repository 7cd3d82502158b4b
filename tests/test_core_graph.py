import json
import subprocess
import sys
import tracemalloc
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from soficlab import (
    GeneratorSet,
    LabeledGraph,
    VertexSet,
    boundary,
    cayley_graph,
    good_vertices,
    is_connected,
    is_simple,
    make_labeled_graph,
    parse_graph,
    product_graph,
    restrict_labels,
    rooted_ball,
    rooted_ball_isomorphic,
    serialize_graph,
)
from soficlab.core_graph import connected_components, loop_count, parse_table, subset_of_generators
from soficlab.errors import (
    GeneratorSetMismatch,
    InversePairMismatch,
    InvalidGraphFile,
    InvalidTable,
    NotAPermutation,
    NotInverseClosed,
    SoficlabError,
    UnknownSymbol,
)
from soficlab import groups
from soficlab.sofic import random_permutation_model

from conftest import NON_ASSOCIATIVE_LOOP, conjugate_graph, cycle_graph, random_simple_graph, two_cycles


def test_make_cycle_graph():
    gens = GeneratorSet.from_pairs([("a", "A")])
    g = make_labeled_graph(3, gens, [[1, 2, 0], [2, 0, 1]])
    assert g.n == 3
    assert g.action("a").tolist() == [1, 2, 0]
    assert g.action("A").tolist() == [2, 0, 1]


@pytest.mark.parametrize("n", [3, 4, 7, 50])
def test_cycle_graph_is_the_cayley_graph_of_z_n(n):
    # the test helper builds the cycle from its two rotations, without a table
    g = cycle_graph(n)
    expected = cayley_graph(groups.cyclic_table(n), [1, n - 1], symbol_names=["a", "A"])
    assert g.gens == expected.gens
    assert np.array_equal(g.actions, expected.actions)


def test_cyclic_table_allocates_one_table():
    n = 2000
    tracemalloc.start()
    try:
        table = groups.cyclic_table(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (n, n) and table.dtype == np.int64
    assert np.array_equal(table[7], np.roll(np.arange(n), -7))
    assert np.array_equal(table[:, n - 1], np.roll(np.arange(n), 1))
    # one n^2 int64 array (32 MB); two n x n temporaries would peak at 64 MB
    assert peak < 1.1 * n * n * 8, f"peak {peak} bytes"


def _reference_symmetric_table(k):
    """The per-cell double loop that the row gathers replaced."""
    elems = groups.symmetric_elements(k)
    index = {p: i for i, p in enumerate(elems)}
    m = len(elems)
    table = np.empty((m, m), dtype=np.int64)
    for i, p in enumerate(elems):
        for j, q in enumerate(elems):
            table[i, j] = index[tuple(p[q[x]] for x in range(k))]
    return table


@pytest.mark.parametrize("k", range(1, 7))
def test_symmetric_table_matches_the_double_loop(k):
    table, gens = groups.preset_group(f"s{k}")
    assert np.array_equal(table, _reference_symmetric_table(k))
    if k > 1:
        # the default generators: a transposition, the k-cycle x -> x+1 and its inverse
        swap = groups.element_index_sym(k, (1, 0) + tuple(range(2, k)))
        cyc = groups.element_index_sym(k, tuple(range(1, k)) + (0,))
        assert gens == sorted({swap, cyc, int(np.flatnonzero(table[cyc] == 0)[0])})


def test_make_rejects_duplicate_image():
    gens = GeneratorSet.from_pairs([("a", "a")])
    with pytest.raises(NotAPermutation):
        make_labeled_graph(2, gens, [[0, 0]])


def test_make_rejects_inverse_mismatch():
    gens = GeneratorSet.from_pairs([("a", "A")])
    with pytest.raises(InversePairMismatch):
        make_labeled_graph(4, gens, [[1, 2, 3, 0], [0, 1, 2, 3]])


def test_generator_set_validation():
    with pytest.raises(ValueError):
        GeneratorSet(("a", "a"), (0, 1))
    with pytest.raises(ValueError):
        GeneratorSet(("a", "b"), (0, 0))
    gs = GeneratorSet.from_pairs([("a", "A"), ("m", "m")])
    assert gs.inverse_symbol("a") == "A"
    assert gs.inverse_symbol("m") == "m"
    with pytest.raises(UnknownSymbol):
        gs.index("zz")


def test_cayley_z3():
    g = cayley_graph(groups.cyclic_table(3), [1, 2])
    assert g.n == 3
    assert g.action("g1").tolist() == [1, 2, 0]
    assert g.action("g2").tolist() == [2, 0, 1]
    assert g.gens.inverse_symbol("g1") == "g2"


def test_cayley_s3_matches_independent_composition():
    # oracle: compose permutation tuples directly, independent of groups.py
    elems = sorted(permutations(range(3)))
    gens = [(1, 0, 2), (1, 2, 0), (2, 0, 1)]
    g = cayley_graph(groups.symmetric_table(3), [elems.index(p) for p in gens])
    assert g.n == 6 and len(g.gens) == 3
    for p in gens:
        symbol = f"g{elems.index(p)}"
        expected = [elems.index(tuple(p[x[i]] for i in range(3))) for x in elems]
        assert g.action(symbol).tolist() == expected


def test_cayley_z4_self_inverse_generator():
    g = cayley_graph(groups.cyclic_table(4), [2])  # 2 is its own inverse mod 4
    assert g.gens.inverse_symbol("g2") == "g2"
    count, labels = connected_components(g)
    assert count == 2
    assert labels[0] == labels[2] and labels[1] == labels[3]


def test_cayley_rejects_bad_inputs():
    with pytest.raises(NotInverseClosed):
        cayley_graph(groups.cyclic_table(4), [1])
    with pytest.raises(InvalidTable):
        cayley_graph([[0, 1], [0, 1]], [0])


@pytest.mark.parametrize(
    "table, message",
    [
        ([[0, 1], [1, 2]], "table entries out of range"),
        ([[(i - j) % 3 for j in range(3)] for i in range(3)], "table has no two-sided identity"),
        (  # 2.3 = 0 but 3.2 = 1, and 3 and 4 fare no better
            [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]],
            "table has an element without a two-sided inverse",
        ),
        (NON_ASSOCIATIVE_LOOP, "table is not associative"),
    ],
    ids=["out-of-range", "no-identity", "no-inverse", "not-associative"],
)
def test_cayley_rejects_tables_that_are_no_group(table, message):
    with pytest.raises(InvalidTable, match=f"^{message}$"):
        cayley_graph(table, [1])


def test_product_c2_c2():
    c2 = cayley_graph(groups.cyclic_table(2), [1])
    p = product_graph(c2, c2)
    assert p.n == 4
    # pairs (x,y) -> 2x + y; the swap acts diagonally
    assert p.action("g1").tolist() == [3, 2, 1, 0]


def test_product_with_loop_point_is_identity_factor():
    g = cycle_graph(6)
    one = make_labeled_graph(1, g.gens, [[0], [0]])
    p = product_graph(g, one)
    assert p.n == g.n
    assert np.array_equal(p.actions, g.actions)


def test_product_cardinality_and_mismatch():
    c3 = cycle_graph(3)
    assert product_graph(c3, c3).n == 9
    other = cayley_graph(groups.cyclic_table(3), [1, 2])
    with pytest.raises(GeneratorSetMismatch):
        product_graph(c3, other)


def test_boundary_c6_arc():
    g = cycle_graph(6)
    count, edges = boundary(g, VertexSet.from_indices(6, [0, 1, 2]))
    assert count == 2
    assert sorted((min(u, v), max(u, v)) for u, v, _ in edges) == [(2, 3), (0, 5)] or \
        sorted((u, v) for u, v, _ in edges) == [(2, 3), (5, 0)]


def test_boundary_empty_and_full():
    g = cycle_graph(6)
    assert boundary(g, VertexSet.empty(6))[0] == 0
    assert boundary(g, VertexSet(np.ones(6, dtype=bool)))[0] == 0


def test_boundary_symmetry_random(rng):
    for _ in range(30):
        n = int(rng.integers(6, 40))
        g = random_simple_graph(rng, n)
        mask = rng.random(n) < rng.random()
        s = VertexSet(mask)
        assert boundary(g, s)[0] == boundary(g, VertexSet(~mask))[0]


def test_boundary_ignores_loops_counts_parallel_labels():
    # one loop everywhere plus a 2-cycle pair that doubles every edge
    gens = GeneratorSet.from_pairs([("e", "e"), ("s", "S")])
    swap = [1, 0, 3, 2]
    g = make_labeled_graph(4, gens, [[0, 1, 2, 3], swap, swap])
    assert loop_count(g) == 4
    assert not is_simple(g)
    count, edges = boundary(g, VertexSet.from_indices(4, [0]))
    # the s/S pair is an involution, so {0,1} carries two parallel slots
    assert count == 2
    assert all(u in (0, 1) and v in (0, 1) for u, v, _ in edges)


def test_restrict_labels_to_single_pair():
    t = groups.direct_product_table(groups.cyclic_table(2), groups.cyclic_table(3))
    g = cayley_graph(t, [3, 1, 2])  # (1,0) plus the (0,1) pair
    r = restrict_labels(g, subset_of_generators(g, ["g3"]))
    assert r.gens.symbols == ("g3",)
    assert connected_components(r)[0] == 3


def test_restrict_full_and_empty():
    g = cycle_graph(6)
    full = restrict_labels(g, g.gens)
    assert full == g
    empty = restrict_labels(g, GeneratorSet((), ()))
    assert empty.n == 6 and len(empty.gens) == 0
    with pytest.raises(NotInverseClosed):
        subset_of_generators(g, ["a"])


def test_rooted_ball_radius_zero_all_isomorphic():
    b1 = rooted_ball(cycle_graph(10), 3, 0)
    b2 = rooted_ball(cycle_graph(4), 1, 0)
    assert rooted_ball_isomorphic(b1, b2)


def test_rooted_ball_cycle_vs_line():
    line = rooted_ball(cycle_graph(50), 7, 2)
    assert line.size == 5
    assert rooted_ball_isomorphic(rooted_ball(cycle_graph(10), 0, 2), line)
    assert not rooted_ball_isomorphic(rooted_ball(cycle_graph(4), 0, 2), line)


def test_rooted_ball_wraparound_edge_detected():
    # C7 at radius 3 covers all 7 vertices like the line segment, but the
    # induced ball has the closing edge
    line3 = rooted_ball(cycle_graph(50), 7, 3)
    c7 = rooted_ball(cycle_graph(7), 0, 3)
    assert c7.size == line3.size == 7
    assert not rooted_ball_isomorphic(c7, line3)


def test_ball_isomorphism_is_equivalence(rng):
    balls = []
    for _ in range(12):
        n = int(rng.integers(6, 30))
        g = random_simple_graph(rng, n, extra_matching=False)
        balls.append(rooted_ball(g, int(rng.integers(n)), int(rng.integers(0, 3))))
    for b in balls:
        assert rooted_ball_isomorphic(b, b)
    for b1 in balls:
        for b2 in balls:
            assert rooted_ball_isomorphic(b1, b2) == rooted_ball_isomorphic(b2, b1)
    for b1 in balls:
        for b2 in balls:
            for b3 in balls:
                if rooted_ball_isomorphic(b1, b2) and rooted_ball_isomorphic(b2, b3):
                    assert rooted_ball_isomorphic(b1, b3)


def test_good_vertices_self_reference():
    g = cycle_graph(6)
    assert good_vertices(g, rooted_ball(g, 0, 1)).cardinality == 6


def test_good_vertices_c10_against_line():
    got = good_vertices(cycle_graph(10), rooted_ball(cycle_graph(50), 7, 3))
    assert got.cardinality == 10


def test_good_vertices_c4_wraps():
    got = good_vertices(cycle_graph(4), rooted_ball(cycle_graph(50), 7, 2))
    assert got.cardinality == 0


def test_good_vertices_whole_ball_of_another_graph_needs_distinct_walks():
    # the whole-graph ball of C6 covers the 6 vertices of two triangles and
    # every walk reproduces its edges (C6 covers C3), but reaches 3 vertices
    # only: (2) implies (1) on a connected graph, not on this one
    ref = rooted_ball(cycle_graph(6), 0, 6)
    assert ref.size == 6 and (ref.actions >= 0).all()
    assert good_vertices(two_cycles(3), ref).cardinality == 0
    assert good_vertices(cycle_graph(6), ref).cardinality == 6


def test_good_vertices_product_factorizes(rng):
    for n, r in [(10, 2), (12, 1), (8, 2)]:
        g = random_simple_graph(rng, n, extra_matching=False)
        big = cycle_graph(50, names=tuple(g.gens.symbols[:2]))
        # reference from a large quotient with the same labels when shapes allow,
        # otherwise self-reference
        ref = rooted_ball(g, 0, r)
        ref_prod = rooted_ball(product_graph(g, g), 0, r)
        gv = good_vertices(g, ref)
        gvp = good_vertices(product_graph(g, g), ref_prod)
        if gv.cardinality == g.n:
            expected = np.outer(gv.mask, gv.mask).ravel()
            assert np.array_equal(gvp.mask, expected)
    # Cayley quotient reference: every vertex of C10 x C10 is good for the
    # line-ball product reference
    c10 = cycle_graph(10)
    refp = rooted_ball(product_graph(cycle_graph(50), cycle_graph(50)), 7 * 50 + 7, 3)
    gv = good_vertices(c10, rooted_ball(cycle_graph(50), 7, 3))
    gvp = good_vertices(product_graph(c10, c10), refp)
    assert np.array_equal(gvp.mask, np.outer(gv.mask, gv.mask).ravel())


def test_inverse_pair_actions_compose_to_identity(rng):
    for _ in range(10):
        g = random_simple_graph(rng, int(rng.integers(6, 40)))
        ident = np.arange(g.n)
        for i, j in enumerate(g.gens.inverse):
            assert np.array_equal(g.actions[j][g.actions[i]], ident)


def test_connectivity_flags():
    assert is_connected(cycle_graph(9))
    assert not is_connected(two_cycles(5))


def bfs_components(g):
    """Oracle: plain BFS, components numbered by their smallest vertex."""
    labels = [-1] * g.n
    count = 0
    for start in range(g.n):
        if labels[start] >= 0:
            continue
        labels[start] = count
        queue = [start]
        for x in queue:
            for p in g.actions:
                y = int(p[x])
                if labels[y] < 0:
                    labels[y] = count
                    queue.append(y)
        count += 1
    return count, labels


def test_connected_components_match_bfs(rng):
    long_cycle = cycle_graph(3000)
    graphs = [
        conjugate_graph(long_cycle, rng.permutation(3000)),
        conjugate_graph(two_cycles(700), rng.permutation(1400)),
        random_permutation_model(2000, 1, seed=3),  # many small cycles
        make_labeled_graph(7, GeneratorSet((), ()), []),  # no generators
        make_labeled_graph(0, GeneratorSet.from_pairs([("a", "A")]), [[], []]),
        make_labeled_graph(1, GeneratorSet.from_pairs([("a", "A")]), [[0], [0]]),
    ]
    for g in graphs:
        count, labels = connected_components(g)
        expected_count, expected_labels = bfs_components(g)
        assert count == expected_count
        assert labels.tolist() == expected_labels
    assert connected_components(graphs[2])[0] > 1


def test_import_does_not_load_scipy():
    code = "import sys, soficlab; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_serialize_round_trip_byte_identical():
    g = cayley_graph(groups.symmetric_table(3), groups.preset_group("s3")[1])
    text = serialize_graph(g)
    assert serialize_graph(parse_graph(text)) == text
    # canonical form sorts generators by name
    parsed = parse_graph(text)
    assert list(parsed.gens.symbols) == sorted(parsed.gens.symbols)


def test_parse_rejects_bad_version():
    with pytest.raises(ValueError):
        parse_graph('{"format_version": 99, "n": 1, "generators": []}')


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        "{",
        '{"format_version": 1, "n": "3", "generators": []}',
        '{"format_version": 1, "n": 3, "generators": 5}',
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "perm": [1, 0]}]}',
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "inverse": "A", "perm": [1, 0]}]}',
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "inverse": "a", "perm": [1.0, 0]}]}',
        '{"format_version": 1, "n": 2, "generators": [{"name": "a", "inverse": "a", "perm": [1]}]}',
        '{"format_version": 1, "n": 4611686018427387904, "generators": []}',
    ],
)
def test_parse_rejects_malformed_documents(text):
    with pytest.raises(InvalidGraphFile):
        parse_graph(text)


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
_small_ints = st.integers(min_value=-1, max_value=4)


def _mostly(good, noise):
    """Draw from ``good`` four times in five, else from ``noise``."""
    return st.integers(min_value=0, max_value=4).flatmap(lambda i: noise if i == 0 else good)


def _graph_docs(n):
    """Documents close to a graph on n vertices: each field is mostly well
    formed, perms are mostly permutations of range(n)."""
    name = _mostly(st.sampled_from(["a", "A", "t"]), _json_scalars)
    perm = _mostly(st.permutations(list(range(max(n, 0)))), st.lists(_small_ints, max_size=5) | _json_values)
    generator = st.fixed_dictionaries({"name": name, "inverse": name, "perm": perm})
    return st.fixed_dictionaries(
        {
            "format_version": _mostly(st.just(1), _json_scalars),
            "n": _mostly(st.just(n), _json_scalars),
            "generators": _mostly(st.lists(generator, max_size=3), _json_values),
        }
    )


@settings(max_examples=400, deadline=None)
@given(st.one_of(_small_ints.flatmap(_graph_docs).map(json.dumps), _json_values.map(json.dumps), st.text(max_size=20)))
def test_parse_graph_fuzz_gives_a_graph_or_a_structured_error(text):
    try:
        g = parse_graph(text)
    except SoficlabError:
        return
    assert isinstance(g, LabeledGraph)
    canonical = serialize_graph(g)
    assert serialize_graph(parse_graph(canonical)) == canonical


def _table_docs(m):
    """Documents close to a table file for an m-element group: mostly square
    tables of small ints, or the table of a real group, with mostly small
    integer generators."""
    row = _mostly(st.lists(_small_ints, min_size=m, max_size=m), _json_values)
    preset = st.sampled_from(["z2", "z3", "z4", "s3"]).map(lambda name: groups.preset_group(name)[0].tolist())
    return st.fixed_dictionaries(
        {
            "table": _mostly(preset | st.lists(row, min_size=m, max_size=m), _json_values),
            "generators": _mostly(st.lists(st.integers(min_value=-1, max_value=6), max_size=3), _json_values),
        }
    )


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(min_value=1, max_value=4).flatmap(_table_docs).map(json.dumps), _json_values.map(json.dumps)))
def test_table_file_fuzz_gives_a_graph_or_a_structured_error(text):
    try:
        table, gens = parse_table(text)
        g = cayley_graph(table, gens)
    except SoficlabError:
        return
    assert g.n == table.shape[0]
    assert sorted(g.gens.symbols) == sorted(f"g{x}" for x in gens)


def test_vertex_set_semantics():
    s = VertexSet.from_indices(8, [1, 3, 5])
    assert s.cardinality == 3
    assert 3 in s and 2 not in s


def test_cayley_refuses_a_left_identity_that_is_no_right_identity():
    # 0*y = y, but x*0 = -x; the existing case (x - y) has only a right identity
    with pytest.raises(InvalidTable, match="^table has no two-sided identity$"):
        cayley_graph([[(j - i) % 3 for j in range(3)] for i in range(3)], [1])


def _triple_associative(table):
    """The brute-force check over all m^3 triples: (a*b)*c == a*(b*c)."""
    table = np.asarray(table)
    return bool(np.array_equal(table[table], table[:, table]))


# every single-factor preset of at most 120 elements, and some products;
# every preset puts its identity at 0
_SMALL_PRESETS = (
    [f"z{n}" for n in range(1, 121)]
    + [f"s{k}" for k in range(1, 6)]
    + [f"d{n}" for n in range(1, 61)]
    + ["z2xz2", "z2xz2xz2", "s3xz4", "d4xs3", "z3xd5", "s4xz5"]
)


def test_is_associative_agrees_with_the_triple_check_on_presets():
    for name in _SMALL_PRESETS:
        table, _ = groups.preset_group(name)
        assert table.shape[0] <= 120
        assert groups.is_associative(table, 0) is _triple_associative(table) is True, name


@pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 60])
def test_is_associative_refuses_the_loop_times_a_cyclic_group(m):
    loop, cyclic = np.array(NON_ASSOCIATIVE_LOOP), groups.cyclic_table(m)
    for table in (groups.direct_product_table(loop, cyclic), groups.direct_product_table(cyclic, loop)):
        assert groups.is_associative(table, 0) is _triple_associative(table) is False


_HYPOTHESIS_GROUPS = ["z1", "z2", "z6", "z2xz2", "s3", "d4", "z2xz2xz2", "z3xz3", "d5", "s3xz2", "s4"]


@st.composite
def _relabeled_group_tables(draw):
    """A preset group table under a random relabeling p of its elements:
    rows, columns and entries permuted alike, the identity moved to p[0]."""
    table, _ = groups.preset_group(draw(st.sampled_from(_HYPOTHESIS_GROUPS)))
    m = table.shape[0]
    p = np.array(draw(st.permutations(range(m))), dtype=np.int64)
    relabeled = np.empty_like(table)
    relabeled[np.ix_(p, p)] = p[table]
    return relabeled, int(p[0])


@settings(max_examples=200, deadline=None)
@given(_relabeled_group_tables(), st.data())
def test_is_associative_agrees_with_the_triple_check_on_drawn_tables(relabeled, data):
    table, identity = relabeled
    m = table.shape[0]
    assert groups.is_associative(table, identity) is _triple_associative(table) is True

    # rows and columns permuted apart give a latin square; normalised to the
    # loop x o y = T[R^-1(x), C^-1(y)], with R(x) = T[x, 0] and C(y) = T[0, y],
    # it has the identity T[0, 0]
    rows = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
    cols = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
    square = table[np.ix_(rows, cols)]
    loop = square[np.ix_(np.argsort(square[:, 0]), np.argsort(square[0]))]
    loop_identity = int(square[0, 0])
    assert np.array_equal(loop[loop_identity], np.arange(m)) and np.array_equal(loop[:, loop_identity], np.arange(m))
    assert groups.is_associative(loop, loop_identity) is _triple_associative(loop)

    # one entry outside the identity's row and column overwritten
    if m > 1:
        others = [x for x in range(m) if x != identity]
        a, b = data.draw(st.sampled_from(others)), data.draw(st.sampled_from(others))
        broken = table.copy()
        broken[a, b] = data.draw(st.integers(min_value=0, max_value=m - 1))
        assert groups.is_associative(broken, identity) is _triple_associative(broken)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_is_associative_tests_every_generator(k):
    # loop x Z2^k numbers the group's 2^k elements first, and they pass: the
    # loop's first element fails only at the (k+1)-th check
    group = groups.preset_group("x".join(["z2"] * k))[0]
    table = groups.direct_product_table(np.array(NON_ASSOCIATIVE_LOOP), group)
    assert groups.is_associative(table, 0) is _triple_associative(table) is False


def _with_an_involution_that_fails(group):
    """A nontrivial group with one element x adjoined: x*g = g*x = x for g
    in the group and x*x = 1.  Every group element passes Light's check and
    x fails it, as (x*x)*g = g but x*(x*g) = 1 for g != 1; no latin square."""
    n = group.shape[0]
    table = np.full((n + 1, n + 1), n, dtype=np.int64)
    table[:n, :n] = group
    table[n, n] = 0
    return table


@pytest.mark.parametrize("name", ["z2", "z6", "s3", "d4"])
def test_is_associative_tests_the_last_element(name):
    table = _with_an_involution_that_fails(groups.preset_group(name)[0])
    assert groups.is_associative(table, 0) is _triple_associative(table) is False


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_HYPOTHESIS_GROUPS[1:]), st.booleans(), st.data())  # all but z1
def test_is_associative_refuses_relabeled_non_associative_tables(name, loop_product, data):
    # under a random relabeling the greedy order meets the failing elements
    # at any step: all but the identity of the loop's product (its middle
    # nucleus is its identity), or the one adjoined element
    group = groups.preset_group(name)[0]
    if loop_product:
        table = groups.direct_product_table(np.array(NON_ASSOCIATIVE_LOOP), group)
    else:
        table = _with_an_involution_that_fails(group)
    m = table.shape[0]
    p = np.array(data.draw(st.permutations(range(m))), dtype=np.int64)
    relabeled = np.empty_like(table)
    relabeled[np.ix_(p, p)] = p[table]
    assert groups.is_associative(relabeled, int(p[0])) is _triple_associative(relabeled) is False


def _reference_dihedral_table(n):
    """The per-cell double loop that the broadcast replaced."""
    m = 2 * n
    table = np.empty((m, m), dtype=np.int64)
    for a in range(m):
        i1, j1 = a % n, a // n
        for b in range(m):
            i2, j2 = b % n, b // n
            i = (i1 + i2) % n if j1 == 0 else (i1 - i2) % n
            table[a, b] = i + n * ((j1 + j2) % 2)
    return table


def _reference_direct_product_table(ta, tb):
    """The per-row loop that the broadcast replaced."""
    na, nb = ta.shape[0], tb.shape[0]
    a = np.arange(na)
    b = np.arange(nb)
    out = np.empty((na * nb, na * nb), dtype=np.int64)
    for a1 in range(na):
        for b1 in range(nb):
            out[a1 * nb + b1] = (ta[a1][a][:, None] * nb + tb[b1][b][None, :]).ravel()
    return out


@pytest.mark.parametrize("n", range(1, 13))
def test_dihedral_table_matches_the_double_loop(n):
    table = groups.dihedral_table(n)
    assert table.dtype == np.int64 and table.flags.c_contiguous
    assert np.array_equal(table, _reference_dihedral_table(n))


@pytest.mark.parametrize("left, right", [("z1", "z1"), ("z2", "z3"), ("s3", "z4"), ("d4", "s3"), ("z5", "d3"), ("s4", "z5")])
def test_direct_product_table_matches_the_row_loop(left, right):
    ta, tb = groups.preset_group(left)[0], groups.preset_group(right)[0]
    table = groups.direct_product_table(ta, tb)
    assert table.dtype == np.int64 and table.flags.c_contiguous
    assert np.array_equal(table, _reference_direct_product_table(ta, tb))


def test_is_associative_reads_every_row_block():
    # 300 rows are two blocks; the one overwritten entry, in the last row,
    # is read only by the second
    table = groups.cyclic_table(300)
    table[299, 298] = 0
    reference = all(np.array_equal(table[table[a]], table[a][table]) for a in range(300))
    assert groups.is_associative(table, 0) is reference is False
