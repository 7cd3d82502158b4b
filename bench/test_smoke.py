"""Smoke tests of the benchmark at tiny sizes: Cay(S3) closure, an n=200
improve and small CLI inputs.

    python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_batch  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402


def bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    expected = LAYER_METRICS if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m[0]: m[1] for m in expected}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        details = json.loads(proc.stdout.strip().splitlines()[-2])["details"]
        calls = result["metrics"]["clusters.improve.calls"]["value"]
        if workload == "closure-s4":
            k = 6  # |S3|: 2k^3 associativity checks, k^2 closure products, k^2 table entries
            assert details["by_operation"]["cluster_group"] == {
                "clusters.improve.calls": 2 * k**3 + 2 * k**2,
                "clusters.improve.distinct_inputs": k,
            }
        elif workload == "improve-n2000":
            assert calls == 0


def test_benchmark_json_lists_what_the_runs_emit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == LAYER_METRICS


def test_wrong_closure_expectation_is_a_failure(monkeypatch):
    monkeypatch.setattr(oracles, "element_orders", lambda table: [1] * table.shape[0])
    result = worker.measure("closure-s4", seed=5, seconds=0, trace=False, sizes=inputs.TINY)
    assert result["failed"] >= 1 and any("element orders" in e for e in result["errors"])


def test_wrong_planted_map_is_a_failure(monkeypatch):
    setup = worker.ImproveN2000.setup

    def shifted(self, seed, sizes):
        setup(self, seed, sizes)
        self.planted = np.roll(self.planted, 1)

    monkeypatch.setattr(worker.ImproveN2000, "setup", shifted)
    result = worker.measure("improve-n2000", seed=5, seconds=0, trace=False, sizes=inputs.TINY)
    assert result["failed"] == result["attempted"] > 0
    assert result["recovery_dist"] > 0


def test_wrong_sofic_expectation_is_a_failure(monkeypatch):
    monkeypatch.setattr(oracles, "reduced_word_count", lambda degree, max_len: 1)
    result = cli_batch.measure(seed=5, seconds=0, trace=False, sizes=inputs.TINY, setups=1)
    assert result["failed"] == 1 and result["errors"][0].startswith("sofic:")


def test_without_sources_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "closure-s4", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_oracles_recount_on_a_known_graph():
    cay = inputs.s_k_input(3, np.random.default_rng(0))
    inverse = dict(zip(cay.names, cay.inverse_names))
    translation = inputs.right_translation(cay, 3)
    assert oracles.bad_edges(cay.names, inverse, cay.actions, translation) == 0
    swapped = translation.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert oracles.bad_edges(cay.names, inverse, cay.actions, swapped) > 0
    assert oracles.element_orders(cay.table) == [1, 2, 2, 2, 3, 3]
