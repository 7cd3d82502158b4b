"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with ``pytest -s tests/test_acceptance.py``
to see the per-criterion lines."""

import json
import time
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from soficlab import boundary, cayley_graph, product_graph
from soficlab.almost_auto import (
    ImprovementConfig,
    ImprovementWorkspace,
    VertexMap,
    defect_of_map,
    format_map_text,
    graph_of_map,
    improve,
)
from soficlab.cli import run
from soficlab.clusters import cluster_group, dichotomy_check, group_invariants, lef_certificate
from soficlab.expansion import cheeger_bounds, cheeger_exact, lambda2
from soficlab.sofic import Word, random_permutation_model, reduced_words, sofic_report
from soficlab import groups

from conftest import cycle_graph, random_connected_graph, random_simple_graph
from test_sofic import cayley_relation_words

SEED = 20240817


def report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def s5_recovery():
    """Shared by criteria 5 and 6: corrupt all 120 right translations of
    Cay(S5) at 2 points each and improve them back."""
    table, gen_idx = groups.preset_group("s5")
    g = cayley_graph(table, gen_idx)
    sd = lambda2(g)
    assert sd.converged
    h0 = len(g.gens) * (1.0 - sd.lambda2) / 2.0
    n = g.n
    delta = 1.0 / n  # delta * n = 1 bad edge allowed
    cfg = ImprovementConfig(kappa=0.2, radius=1, smoothing_steps=10, target_delta=delta)
    ws = ImprovementWorkspace(g, cfg)
    rng = np.random.default_rng(SEED)
    trials = []
    start = time.perf_counter()
    for elem in range(n):
        base = table[:, elem].copy()
        x1, x2 = rng.choice(n, 2, replace=False)
        corrupted = base.copy()
        corrupted[[x1, x2]] = corrupted[[x2, x1]]
        improved, trace = improve(g, VertexMap(corrupted), cfg, workspace=ws)
        trials.append((base, improved, trace))
    elapsed = time.perf_counter() - start
    return g, h0, delta, trials, elapsed


def test_criterion_1_boundary_correspondence(rng):
    start = time.perf_counter()
    pairs = 0
    ok = True
    while pairs < 1000:
        n = int(rng.integers(6, 201))
        g = random_simple_graph(rng, n)
        c = VertexMap(rng.permutation(n))
        rep = defect_of_map(g, c)
        bnd = boundary(product_graph(g, g), graph_of_map(g, c))[0]
        if bnd != 2 * rep.bad_edges:
            ok = False
            break
        pairs += 1
    elapsed = time.perf_counter() - start
    report(1, ok and elapsed < 30.0,
           f"|bd(graph(c))| = 2*bad over {pairs} simple pairs, {elapsed:.1f}s")


def test_criterion_2_cheeger_sandwich(rng):
    start = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(100):
        n = int(rng.integers(4, 21))
        g = random_connected_graph(rng, n)
        exact = cheeger_exact(g)
        interval = cheeger_bounds(g, lambda2(g))
        upper = Fraction(boundary(g, interval.witness)[0], interval.witness.cardinality)
        if not (interval.lower <= exact.value <= upper):
            ok = False
            break
        checked += 1
    anchors = (
        cheeger_exact(cycle_graph(6)).value == Fraction(2, 3)
        and cheeger_exact(cayley_graph(groups.cyclic_table(4), [1, 2, 3])).value == Fraction(2)
    )
    elapsed = time.perf_counter() - start
    report(2, ok and anchors and elapsed < 120.0,
           f"lower <= h <= upper on {checked} connected graphs, anchors h(C6)=2/3 h(K4)=2, {elapsed:.1f}s")


def test_criterion_3_spectral_anchors():
    start = time.perf_counter()
    sd_c6 = lambda2(cycle_graph(6))
    sd_k4 = lambda2(cayley_graph(groups.cyclic_table(4), [1, 2, 3]))
    ok = (
        sd_c6.converged
        and abs(sd_c6.lambda2 - 0.5) <= 1e-8
        and sd_k4.converged
        and abs(sd_k4.lambda2 - (-1.0 / 3.0)) <= 1e-8
    )
    elapsed = time.perf_counter() - start
    report(3, ok and elapsed < 1.0,
           f"lambda2(C6)={sd_c6.lambda2:.10f}, lambda2(K4)={sd_k4.lambda2:.10f}, {elapsed:.2f}s")


def test_criterion_4_automorphism_group_recovery():
    start = time.perf_counter()
    # Cay(S3): brute force over all 720 bijections
    table3, gens3 = groups.preset_group("s3")
    g3 = cayley_graph(table3, gens3)
    seeds3 = [
        VertexMap(p)
        for p in permutations(range(6))
        if defect_of_map(g3, VertexMap(p)).bad_edges == 0
    ]
    cg3 = cluster_group(g3, 0.0, seeds3, ImprovementConfig())
    inv3 = group_invariants(cg3)
    # Cay(Z5): the 5 translations plus a seeded randomized search for others
    g5 = cycle_graph(5)
    t5 = groups.cyclic_table(5)
    seeds5 = [VertexMap(t5[:, e]) for e in range(5)]
    found = {s.key() for s in seeds5}
    rng = np.random.default_rng(SEED)
    for _ in range(2000):
        c = VertexMap(rng.permutation(5))
        if defect_of_map(g5, c).bad_edges == 0:
            found.add(c.key())
    seeds5 = [VertexMap(k) for k in sorted(found)]
    cg5 = cluster_group(g5, 0.0, seeds5, ImprovementConfig())
    inv5 = group_invariants(cg5)
    ok = (
        len(seeds3) == 6
        and inv3 == (6, [1, 2, 2, 2, 3, 3], False)
        and len(seeds5) == 5
        and inv5 == (5, [1, 5, 5, 5, 5], True)
    )
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 60.0,
           f"Cay(S3) -> order 6 nonabelian {inv3[1]}, Cay(Z5) -> cyclic order 5, {elapsed:.1f}s")


def test_criterion_5_improvement_recovery(s5_recovery):
    g, h0, delta, trials, elapsed = s5_recovery
    n = g.n
    same_cluster = sum(
        1 for base, improved, _ in trials
        if int(np.count_nonzero(improved.images != base)) <= n // 5
    )
    never_worse = all(t.final.bad_edges <= t.initial.bad_edges for _, _, t in trials)
    target = all(t.final.bad_edges <= delta * n for _, _, t in trials)
    ok = h0 > 0 and same_cluster >= 0.95 * n and never_worse and target
    report(5, ok and elapsed < 300.0,
           f"h0={h0:.4f}, same-cluster {same_cluster}/120, never worse: {never_worse}, {elapsed:.1f}s")


def test_criterion_6_dichotomy(s5_recovery):
    g, h0, delta, trials, _ = s5_recovery
    start = time.perf_counter()
    recovered = [improved for _, improved, _ in trials]
    rep = dichotomy_check(g, delta, recovered, h0)
    elapsed = time.perf_counter() - start
    report(6, rep.ok and elapsed < 10.0,
           f"{rep.pairs_checked} pairs, threshold {rep.threshold:.2f}, {len(rep.violations)} violations, {elapsed:.1f}s")


def test_criterion_7_lef_certificate():
    start = time.perf_counter()
    table, gen_idx = groups.preset_group("s4xz5")
    g = cayley_graph(table, gen_idx)
    gamma = ["g30", "g45", "g90"]  # the embedded S4 generators
    f_words = [Word((), True), Word(("g1",), True), Word(("g1", "g1"), True)]
    cert = lef_certificate(g, gamma, f_words, 0.0, ImprovementConfig())
    f_clusters = {tuple(w["word"]): w["cluster"] for w in cert.witnesses}
    distinct = len({f_clusters[()], f_clusters[("g1",)], f_clusters[("g1", "g1")]}) == 3
    ok = cert.status == "certified" and distinct and 5 in cert.element_orders
    elapsed = time.perf_counter() - start
    report(7, ok and elapsed < 60.0,
           f"3 distinct clusters, group order {cert.group_order}, orders {cert.element_orders}, {elapsed:.1f}s")


def test_criterion_8_sofic_defects():
    start = time.perf_counter()
    exact_ok = True
    for name in ("z6", "s3", "d4", "z2xz3"):
        table, gens = groups.preset_group(name)
        g = cayley_graph(table, gens)
        rep = sofic_report(g, cayley_relation_words(table, g, 3))
        exact_ok = exact_ok and rep.max_defect == 0.0
    g = random_permutation_model(10_000, 2, seed=SEED)
    words = reduced_words(g.gens, 4, expects_identity=False)
    rep = sofic_report(g, words)
    frozen = 0.0006  # measured once for this seed and pinned
    ok = exact_ok and len(words) == 160 and rep.max_defect <= 0.01 and rep.max_defect == frozen
    elapsed = time.perf_counter() - start
    report(8, ok and elapsed < 60.0,
           f"Cayley relations exact, random model max_defect={rep.max_defect} (<= 0.01), {elapsed:.1f}s")


def test_criterion_9_cli_determinism(tmp_path):
    start = time.perf_counter()
    g = tmp_path / "g.json"
    runs = [
        ["gen", "cayley", "--group", "z6", "--gens", "1,5", "-o", str(g)],
        ["gen", "random", "--n", "60", "--pairs", "2", "--seed", "5", "-o", str(tmp_path / "r.json")],
        ["cheeger", str(g), "-o", str(tmp_path / "cheeger.json")],
        ["sofic", str(g), "--max-len", "3", "-o", str(tmp_path / "sofic.json")],
        ["cluster-group", str(g), "--auto", "-o", str(tmp_path / "cg.json")],
        ["report", str(g), "-o", str(tmp_path / "report.json")],
    ]
    base = np.roll(np.arange(6), -2)
    corrupted = base.copy()
    corrupted[[0, 3]] = corrupted[[3, 0]]
    (tmp_path / "m.txt").write_text(format_map_text(VertexMap(corrupted)))
    runs.append(["improve", str(g), "--map", str(tmp_path / "m.txt"), "-o", str(tmp_path / "out.map")])
    lef_graph = tmp_path / "g45.json"
    runs.append(["gen", "cayley", "--group", "s4xz5", "-o", str(lef_graph)])
    (tmp_path / "f.txt").write_text("()\ng1\n")
    runs.append(["lef-check", str(lef_graph), "--gamma", "g30,g45,g90",
                 "--words", str(tmp_path / "f.txt"), "-o", str(tmp_path / "cert.json")])
    for argv in runs:
        assert run(argv) == 0, argv
    commands = set()
    ok = True
    for manifest_path in sorted(tmp_path.glob("*.manifest.json")):
        manifest = json.loads(manifest_path.read_text())
        commands.add(manifest["command"])
        before = {p: open(p, "rb").read() for p in manifest["outputs"]}
        assert run(manifest["argv"]) == 0
        after = {p: open(p, "rb").read() for p in manifest["outputs"]}
        ok = ok and before == after
    elapsed = time.perf_counter() - start
    all_commands = {"gen", "cheeger", "sofic", "improve", "cluster-group", "lef-check", "report"}
    report(9, ok and commands == all_commands and elapsed < 60.0,
           f"replayed {sorted(commands)} byte-identically, {elapsed:.1f}s")
