"""The in-process workloads closure-s4 and improve-n2000.

``bench/run.py`` starts this file as a fresh process per workload, so that
set-up time and peak RSS do not leak between workloads:

    python3 bench/worker.py --workload improve-n2000 --seed 1 --seconds 10 --trace 0 --spawned-at T

``T`` is the parent's CLOCK_MONOTONIC reading just before the spawn, so the
reported set-up time covers interpreter start, import and input
construction.  The last line of standard output is one JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
import oracles
from tracer import Tracer, layer_metrics

OUT_DIR = Path(__file__).resolve().parent.parent / ".bench_out"


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, op: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.extend(f"{op}: {p}" for p in problems)


class ClosureS4:
    """cluster_group(Cay(S4)) seeded with its 24 automorphisms, then
    lef_certificate(Cay(S4 x Z5)); both graphs under a seeded vertex relabeling."""

    def setup(self, seed: int, sizes: inputs.Sizes):
        from soficlab import almost_auto

        rng = np.random.default_rng(seed)
        self.closure = inputs.s_k_input(sizes.closure_k, rng)
        self.g = self._graph(self.closure)
        self.lef, self.gamma, z5 = inputs.s_k_times_z5_input(sizes.lef_k, rng)
        self.g_lef = self._graph(self.lef)
        self.f_words = [(), (z5,), (z5, z5)]
        self.seeds = almost_auto.label_automorphisms(self.g)

    @staticmethod
    def _graph(inp: inputs.CayleyInput):
        from soficlab.core_graph import GeneratorSet, make_labeled_graph

        gens = GeneratorSet(tuple(inp.names), tuple(inp.names.index(s) for s in inp.inverse_names))
        return make_labeled_graph(inp.table.shape[0], gens, inp.actions)

    def ops(self):
        from soficlab import almost_auto, clusters
        from soficlab.sofic import Word

        words = [Word(w, True) for w in self.f_words]
        return [
            ("cluster_group", lambda: clusters.cluster_group(self.g, 0.0, self.seeds, almost_auto.ImprovementConfig())),
            (
                "lef_certificate",
                lambda: clusters.lef_certificate(self.g_lef, self.gamma, words, 0.0, almost_auto.ImprovementConfig()),
            ),
        ]

    def check(self, op: str, out) -> list[str]:
        if op == "cluster_group":
            c = self.closure
            reps = [cl.representative.images for cl in out.clusters]
            return oracles.check_cluster_group(
                c.names, dict(zip(c.names, c.inverse_names)), c.actions, out.table, reps, c.table
            )
        doc = out.as_dict()
        witnesses = [(tuple(w["word"]), w["cluster"]) for w in doc["witnesses"]]
        reps = [cl.representative.images for cl in out.group.clusters]
        return oracles.check_lef(self.lef.names, self.lef.actions, doc, self.f_words, witnesses, reps, out.table)

    def details(self, outputs) -> dict:
        return {}


class ImproveN2000:
    """improve on the random 2-pair model at n=2000, one shared workspace,
    from the planted identity corrupted at three levels."""

    def setup(self, seed: int, sizes: inputs.Sizes):
        from soficlab import almost_auto
        from soficlab.core_graph import GeneratorSet, make_labeled_graph

        rng = np.random.default_rng(seed)
        n = sizes.improve_n
        pairs, self.actions = inputs.random_two_pair_model(n, rng)
        self.names = [s for pair in pairs for s in pair]
        self.inverse = {a: b for a, b in pairs} | {b: a for a, b in pairs}
        self.g = make_labeled_graph(n, GeneratorSet.from_pairs(pairs), self.actions)
        self.cfg = almost_auto.ImprovementConfig()
        self.ws = almost_auto.ImprovementWorkspace(self.g, self.cfg)
        self.planted = np.arange(n)
        self.corrupted = [inputs.transposition_corruption(self.planted, s, rng) for s in sizes.improve_levels]
        self.maps = [almost_auto.VertexMap(c) for c in self.corrupted]

    def ops(self):
        from soficlab import almost_auto

        return [
            (f"improve[{i}]", lambda m=m: almost_auto.improve(self.g, m, self.cfg, workspace=self.ws))
            for i, m in enumerate(self.maps)
        ]

    def check(self, op: str, out) -> list[str]:
        given = self.corrupted[int(op[len("improve["):-1])]
        improved, trace = out
        problems, dist = oracles.check_improved(
            self.names, self.inverse, self.actions, given, np.asarray(improved.images), self.planted, trace.as_dict()
        )
        if dist != 0:
            problems.append(f"improved map is {dist} vertices from the planted map")
        return problems

    def details(self, outputs) -> dict:
        dist = sum(int(np.count_nonzero(np.asarray(o[0].images) != self.planted)) for _, o in outputs)
        return {"recovery_dist": dist}


WORKLOADS = {"closure-s4": ClosureS4, "improve-n2000": ImproveN2000}


def attempt(call):
    """(output, None) or (None, traceback): a failing operation is counted, not fatal."""
    try:
        return call(), None
    except Exception:
        return None, traceback.format_exc(limit=-3).strip()


def run_iteration(workload, tally: Tally, tracer: Tracer | None = None) -> tuple[float, list, dict]:
    """Run every operation once; returns the timed seconds, the outputs and,
    in a traced iteration, the clusters module's improve calls per operation.
    Oracle checks run after the clock stops."""
    wall = 0.0
    outputs = []
    by_operation = {}
    for op, call in workload.ops():
        before = tracer and (tracer.counts["clusters.improve.calls"], len(tracer.improve_keys))
        start = time.perf_counter()
        out, error = attempt(call)
        wall += time.perf_counter() - start
        if error:
            tally.record(op, [error])
            continue
        outputs.append((op, out))
        if tracer:
            by_operation[op] = {
                "clusters.improve.calls": tracer.counts["clusters.improve.calls"] - before[0],
                "clusters.improve.distinct_inputs": len(tracer.improve_keys) - before[1],
            }
    for op, out in outputs:
        try:
            problems = workload.check(op, out)
        except Exception:  # malformed output the oracle cannot read
            problems = [traceback.format_exc(limit=-3).strip()]
        tally.record(op, problems)
    return wall, outputs, by_operation


def measure(name: str, seed: int, seconds: float, trace: bool, sizes: inputs.Sizes,
            spawned_at: float | None = None, setup_only: bool = False) -> dict:
    """One run: set-up, one untimed warm-up iteration, timed iterations for
    ``seconds``; with ``trace``, also one traced iteration (set-up traced too)."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC) if spawned_at is None else spawned_at
    workload = WORKLOADS[name]()
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        workload.setup(seed, sizes)
    finally:
        if tracer:
            tracer.uninstall()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - start
    if setup_only:
        return {"setup_s": setup_s}

    tally = Tally()
    run_iteration(workload, tally)  # warm-up
    times, outputs = [], []
    clock = time.perf_counter()
    while not times or time.perf_counter() - clock < seconds:
        wall, outputs, _ = run_iteration(workload, tally)
        times.append(wall)
    result = {
        "setup_s": setup_s,
        "iteration_s": times,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **workload.details(outputs),
    }
    if tracer:
        tracer.install()
        try:
            traced, _, result["by_operation"] = run_iteration(workload, tally, tracer)
        finally:
            tracer.uninstall()
        result["attempted"], result["failed"], result["errors"] = tally.attempted, tally.failed, tally.errors[:20]
        extra = {"trace.overhead_s": traced - statistics.median(times)}
        result["per_layer"] = layer_metrics(tracer.summary(), extra)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"trace-{name}.json", workload=name, seed=seed)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    sizes = inputs.TINY if args.tiny else inputs.FULL
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes,
                     spawned_at=args.spawned_at, setup_only=args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
