"""Outside-in tracing of soficlab at its module boundaries.

``Tracer.install`` replaces public functions by recording wrappers under the
names the calling modules imported them by (``soficlab.clusters.improve``,
``soficlab.almost_auto.product_graph``, ``soficlab.cli.lambda2`` ...);
``uninstall`` puts the originals back.  Nothing in the package changes, and
a name the package no longer has is skipped.

Coarse calls become spans (name, start, end, parent), kept in memory and
written out at the end.  A span's self time is its duration minus the time
its child spans cover.  Hot calls (``hamming``, ``compose``,
``graph_of_map``, ``word_action``) only add to a count and a total, so that
tracing does not swamp closure-s4; their time stays in the caller's self
time.  Metric names read ``<defining module>.<function>`` for every call
that reaches the function, and ``clusters.<function>`` for the calls the
clusters module makes.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# Every per-layer metric, as (name, unit, better); BENCHMARK.json lists the same.
LAYER_METRICS = [
    ("core_graph.product_graph.calls", "count", "lower"),
    ("core_graph.product_graph.s", "s", "lower"),
    ("core_graph.boundary.calls", "count", "lower"),
    ("core_graph.boundary.s", "s", "lower"),
    ("core_graph.parse_graph.s", "s", "lower"),
    ("core_graph.serialize_graph.s", "s", "lower"),
    ("core_graph.good_vertices.s", "s", "lower"),
    ("sofic.sofic_report.s", "s", "lower"),
    ("sofic.word_action.calls", "count", "lower"),
    ("expansion.lambda2.s", "s", "lower"),
    ("expansion.lambda2.iterations", "count", "lower"),
    ("expansion.lambda2.converged", "fraction", "higher"),
    ("expansion.cheeger_exact.s", "s", "lower"),
    ("expansion.cheeger_bounds.s", "s", "lower"),
    ("expansion.descending_order.calls", "count", "lower"),
    ("expansion.descending_order.s", "s", "lower"),
    ("almost_auto.ImprovementWorkspace.s", "s", "lower"),
    ("almost_auto.ImprovementWorkspace.bytes", "computed_bytes", "lower"),
    ("almost_auto.improve.calls", "count", "lower"),
    ("almost_auto.improve.s", "s", "lower"),
    ("almost_auto.improve.self_s", "s", "lower"),
    ("almost_auto.improve.p50_ms", "ms", "lower"),
    ("almost_auto.improve.p90_ms", "ms", "lower"),
    ("almost_auto.improve.reverted", "count", "lower"),
    ("almost_auto.improve.hamming_moved", "count", "higher"),
    ("almost_auto.defect_of_map.calls", "count", "lower"),
    ("almost_auto.defect_of_map.s", "s", "lower"),
    ("almost_auto.defect_of_map.self_s", "s", "lower"),
    ("almost_auto.graph_of_map.calls", "count", "lower"),
    ("almost_auto.graph_of_map.s", "s", "lower"),
    ("almost_auto.label_automorphisms.s", "s", "lower"),
    ("clusters.cluster_group.s", "s", "lower"),
    ("clusters.lef_certificate.s", "s", "lower"),
    ("clusters.improve.calls", "count", "lower"),
    ("clusters.improve.distinct_inputs", "count", "lower"),
    ("clusters.improve.useful_ratio", "fraction", "higher"),
    ("clusters.compose.calls", "count", "lower"),
    ("clusters.hamming.calls", "count", "lower"),
    ("clusters.defect_of_map.calls", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("cli.cheeger-spectral.s", "s", "lower"),
    ("cli.cheeger-exact.s", "s", "lower"),
    ("cli.sofic.s", "s", "lower"),
    ("cli.report.s", "s", "lower"),
    ("cli.improve.s", "s", "lower"),
    ("cli.cluster-group.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _owned_arrays(obj, exclude) -> int:
    """Bytes of the numpy arrays an object holds directly or one attribute
    deep, leaving out ``exclude`` (the caller's input graph)."""
    def attributes(o):
        names = getattr(type(o), "__slots__", None) or list(getattr(o, "__dict__", {}))
        return [getattr(o, name, None) for name in names]

    total = 0
    for value in attributes(obj):
        if value is exclude:
            continue
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif value is not None and not isinstance(value, (int, float, str)):
            total += sum(v.nbytes for v in attributes(value) if isinstance(v, np.ndarray))
    return total


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.improve_keys: set[str] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------
    def _span(self, name, fn, after=None):
        if fn is None:
            return None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _hot(self, name, fn):
        if fn is None:
            return None
        calls, seconds, clock = self.hot_calls, self.hot_s, time.perf_counter

        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                calls[name] += 1

        return wrapper

    def _counted(self, name, fn, on_call=None):
        if fn is None:
            return None
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            if on_call is not None:
                on_call(args)
            return fn(*args, **kwargs)

        return wrapper

    def _after_improve(self, args, out):
        trace = out[1]
        self.counts["almost_auto.improve.reverted"] += bool(trace.reverted)
        self.counts["almost_auto.improve.hamming_moved"] += int(trace.hamming_moved)

    def _after_lambda2(self, args, sd):
        self.counts["expansion.lambda2.iterations"] += int(sd.iterations)
        self.counts["expansion.lambda2.converged_calls"] += bool(sd.converged)

    def _after_workspace(self, args, ws):
        key = "almost_auto.ImprovementWorkspace.bytes"
        self.counts[key] = max(self.counts[key], _owned_arrays(ws, args[0]))

    def _improve_input(self, args):
        self.improve_keys.add(hashlib.blake2b(np.asarray(args[1].images).tobytes(), digest_size=16).hexdigest())

    # -- patching -------------------------------------------------------
    def install(self):
        from soficlab import almost_auto, cli, clusters, core_graph, expansion, sofic

        def orig(module, name):
            return getattr(module, name, None)

        span, hot = self._span, self._hot
        bnd = span("core_graph.boundary", orig(core_graph, "boundary"))
        report = span("sofic.sofic_report", orig(sofic, "sofic_report"))
        word = hot("sofic.word_action", orig(sofic, "word_action"))
        lam = span("expansion.lambda2", orig(expansion, "lambda2"), self._after_lambda2)
        workspace = span(
            "almost_auto.ImprovementWorkspace", orig(almost_auto, "ImprovementWorkspace"), self._after_workspace
        )
        improve = span("almost_auto.improve", orig(almost_auto, "improve"), self._after_improve)
        defect = span("almost_auto.defect_of_map", orig(almost_auto, "defect_of_map"))
        autos = span("almost_auto.label_automorphisms", orig(almost_auto, "label_automorphisms"))
        group = span("clusters.cluster_group", orig(clusters, "cluster_group"))
        lef = span("clusters.lef_certificate", orig(clusters, "lef_certificate"))
        sites = [
            # cheeger_bounds imports boundary from core_graph at call time
            (core_graph, "boundary", bnd),
            (sofic, "sofic_report", report),
            (sofic, "word_action", word),
            (almost_auto, "product_graph", span("core_graph.product_graph", orig(core_graph, "product_graph"))),
            (almost_auto, "boundary", bnd),
            (almost_auto, "good_vertices", span("core_graph.good_vertices", orig(core_graph, "good_vertices"))),
            (almost_auto, "lambda2", lam),
            (almost_auto, "descending_order", span("expansion.descending_order", orig(expansion, "descending_order"))),
            (almost_auto, "ImprovementWorkspace", workspace),
            (almost_auto, "improve", improve),
            (almost_auto, "defect_of_map", defect),
            (almost_auto, "graph_of_map", hot("almost_auto.graph_of_map", orig(almost_auto, "graph_of_map"))),
            (almost_auto, "label_automorphisms", autos),
            (clusters, "improve", self._counted("clusters.improve", improve, self._improve_input)),
            (clusters, "defect_of_map", self._counted("clusters.defect_of_map", defect)),
            (clusters, "compose", hot("clusters.compose", orig(clusters, "compose"))),
            (clusters, "hamming", hot("clusters.hamming", orig(clusters, "hamming"))),
            (clusters, "ImprovementWorkspace", workspace),
            (clusters, "word_action", word),
            (clusters, "cluster_group", group),
            (clusters, "lef_certificate", lef),
            (cli, "parse_graph", span("core_graph.parse_graph", orig(core_graph, "parse_graph"))),
            (cli, "serialize_graph", span("core_graph.serialize_graph", orig(core_graph, "serialize_graph"))),
            (cli, "lambda2", lam),
            (cli, "cheeger_exact", span("expansion.cheeger_exact", orig(expansion, "cheeger_exact"))),
            (cli, "cheeger_bounds", span("expansion.cheeger_bounds", orig(expansion, "cheeger_bounds"))),
            (cli, "sofic_report", report),
            (cli, "label_automorphisms", autos),
            (cli, "cluster_group", group),
            (cli, "lef_certificate", lef),
        ]
        for module, name, wrapper in sites:
            if wrapper is not None and hasattr(module, name):
                self._saved.append((module, name, getattr(module, name)))
                setattr(module, name, wrapper)

    def uninstall(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    # -- results --------------------------------------------------------
    def summary(self) -> dict:
        """Per-name totals; summaries of several processes add up with :func:`merge`."""
        span_s: dict[str, float] = defaultdict(float)
        span_calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        improve_ms = []
        for (name, start, end, _), child in zip(self.spans, covered):
            span_s[name] += end - start
            span_calls[name] += 1
            self_s[name] += end - start - child
            if name == "almost_auto.improve":
                improve_ms.append(1000.0 * (end - start))
        return {
            "span_s": dict(span_s),
            "span_calls": dict(span_calls),
            "self_s": dict(self_s),
            "hot_s": dict(self.hot_s),
            "hot_calls": dict(self.hot_calls),
            "counts": dict(self.counts),
            "improve_ms": improve_ms,
            "improve_keys": sorted(self.improve_keys),
        }

    def dump(self, path, **extra):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "spans": self.spans, "summary": self.summary()}, fh, separators=(",", ":"))


def merge(summaries: list[dict]) -> dict:
    out: dict = {key: defaultdict(float) for key in ("span_s", "self_s", "hot_s")}
    out.update({key: defaultdict(int) for key in ("span_calls", "hot_calls", "counts")})
    improve_ms: list[float] = []
    keys: set[str] = set()
    for s in summaries:
        for key in out:
            for name, value in s[key].items():
                if name == "almost_auto.ImprovementWorkspace.bytes":
                    out[key][name] = max(out[key][name], value)
                else:
                    out[key][name] += value
        improve_ms += s["improve_ms"]
        keys.update(s["improve_keys"])
    return {**{k: dict(v) for k, v in out.items()}, "improve_ms": improve_ms, "improve_keys": sorted(keys)}


def _percentile(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(summary: dict, extra: dict[str, float]) -> dict[str, float]:
    """Every metric of LAYER_METRICS; a layer the run never entered reads 0."""
    s = summary
    counts = s["counts"]
    improve_calls = counts.get("clusters.improve.calls", 0)
    lambda_calls = s["span_calls"].get("expansion.lambda2", 0)
    special = {
        "expansion.lambda2.converged": counts.get("expansion.lambda2.converged_calls", 0) / lambda_calls
        if lambda_calls
        else 0.0,
        "almost_auto.improve.p50_ms": _percentile(s["improve_ms"], 50),
        "almost_auto.improve.p90_ms": _percentile(s["improve_ms"], 90),
        "clusters.improve.distinct_inputs": len(s["improve_keys"]),
        "clusters.improve.useful_ratio": len(s["improve_keys"]) / improve_calls if improve_calls else 0.0,
    }
    out = {}
    for name, _, _ in LAYER_METRICS:
        base, _, field = name.rpartition(".")
        if name in extra:
            value = extra[name]
        elif name in special:
            value = special[name]
        elif name in counts:
            value = counts[name]
        elif field == "calls":
            value = s["span_calls"].get(base, s["hot_calls"].get(base, 0))
        elif field == "s":
            value = s["span_s"].get(base, s["hot_s"].get(base, 0.0))
        elif field == "self_s":
            value = s["self_s"].get(base, 0.0)
        else:
            value = 0.0
        out[name] = value
    return out
