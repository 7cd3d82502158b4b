"""The cli-batch workload: fresh ``python -m soficlab.cli`` processes.

Set-up writes the input graphs with ``gen`` and a corrupted map with the
benchmark's own code.  One iteration runs the seven commands of ``RUNS`` one
after another, each in a fresh process, so it pays for import, for JSON
parse/serialize of the graph files and for manifest writes.  Outputs are
checked by ``oracles`` and must be byte-identical across iterations.  In a
traced iteration each command runs under ``bench/traced_cli.py`` instead.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracles
from tracer import layer_metrics, merge
from worker import Tally

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD_TIMEOUT_S = 150

# (label, argv template, primary artifact); {d} is the input directory, {o} the output directory.
RUNS = [
    ("cheeger-spectral", ["cheeger", "{d}/spectral.json", "-o", "{o}/cheeger-spectral.json"], "cheeger-spectral.json"),
    ("cheeger-exact", ["cheeger", "{d}/exact.json", "-o", "{o}/cheeger-exact.json"], "cheeger-exact.json"),
    ("sofic", ["sofic", "{d}/sofic.json", "--max-len", "{sofic_len}", "-o", "{o}/sofic.json"], "sofic.json"),
    ("report", ["report", "{d}/sofic.json", "-o", "{o}/report.json"], "report.json"),
    ("improve", ["improve", "{d}/improve.json", "--map", "{d}/corrupted.map", "-o", "{o}/improved.map"], "improved.map"),
    ("cluster-group", ["cluster-group", "{d}/cluster.json", "--auto", "-o", "{o}/cluster-group.json"], "cluster-group.json"),
    ("version", ["--version"], None),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(cmd: list[str], log_prefix: Path) -> tuple[float, float, int, str]:
    """Run one process to completion: (wall seconds, peak RSS MB, exit code, stdout)."""
    with open(log_prefix.with_suffix(".out"), "w+b") as out, open(log_prefix.with_suffix(".err"), "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{cmd} did not finish within {CHILD_TIMEOUT_S} s") from None
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        text = out.read().decode(errors="replace")
        if proc.returncode != 0:
            text += err.read().decode(errors="replace")
    return wall, usage.ru_maxrss / 1024.0, proc.returncode, text


def cli_cmd(argv: list[str], trace_to: Path | None) -> list[str]:
    if trace_to is None:
        return [sys.executable, "-m", "soficlab.cli", *argv]
    return [sys.executable, str(BENCH / "traced_cli.py"), str(trace_to), *argv]


class CliBatch:
    def __init__(self, seed: int, sizes: inputs.Sizes, work: Path):
        self.seed = seed
        self.sizes = sizes
        self.work = work
        self.summaries: list[dict] = []
        self.spans: list[dict] = []  # raw spans of every traced process
        self.reference: dict[str, str] = {}  # artifact -> sha256 of the first iteration

    # -- set-up ----------------------------------------------------------
    def setup(self, d: Path, traced: bool) -> tuple[float, list[str]]:
        """Write every input into ``d``; returns (wall seconds, problems)."""
        d.mkdir(parents=True)
        rng = np.random.default_rng(self.seed)
        s = self.sizes
        spectral, exact, sofic = (int(x) for x in rng.integers(0, 2**31, size=3))
        gens = [
            ["gen", "random", "--n", str(s.cli_spectral_n), "--pairs", "2", "--seed", str(spectral), "-o", f"{d}/spectral.json"],
            ["gen", "random", "--n", str(s.cli_exact_n), "--pairs", "2", "--seed", str(exact), "-o", f"{d}/exact.json"],
            ["gen", "random", "--n", str(s.cli_sofic_n), "--pairs", "2", "--seed", str(sofic), "-o", f"{d}/sofic.json"],
            ["gen", "cayley", "--group", f"s{s.cli_improve_k}", "-o", f"{d}/improve.json"],
            ["gen", "cayley", "--group", f"s{s.cli_cluster_k}", "-o", f"{d}/cluster.json"],
        ]
        problems = []
        start = time.perf_counter()
        for i, argv in enumerate(gens):
            trace_to = d / f"gen{i}.trace.json" if traced else None
            _, _, code, text = run_child(cli_cmd(argv, trace_to), d / f"gen{i}")
            if code != 0:
                problems.append(f"gen exited {code}: {text.strip()[-300:]}")
            elif traced:
                self.collect(argv[:2], trace_to)
        # planted right translation of Cay(S_k), two points swapped
        group = inputs.s_k_input(s.cli_improve_k, None)
        self.planted = inputs.right_translation(group, int(rng.integers(group.table.shape[0])))
        self.corrupted = inputs.transposition_corruption(self.planted, 2 / self.planted.size, rng)
        (d / "corrupted.map").write_text("".join(f"{int(x)}\n" for x in self.corrupted))
        return time.perf_counter() - start, problems

    def collect(self, run: list[str], trace_file: Path):
        doc = json.loads(trace_file.read_text())
        self.summaries.append(doc["summary"])
        self.spans.append({"run": " ".join(run), "spans": doc["spans"]})

    # -- one iteration ---------------------------------------------------
    def iteration(self, d: Path, index: int, traced: bool):
        """(timed seconds, seconds per run, peak child RSS MB, [(run, problems)])."""
        o = self.work / f"iter-{index}"
        o.mkdir()
        seconds, peak, results = {}, 0.0, []
        for label, template, _ in RUNS:
            argv = [a.format(d=d, o=o, sofic_len=self.sizes.cli_sofic_len) for a in template]
            trace_to = o / f"{label}.trace.json" if traced else None
            wall, rss, code, text = run_child(cli_cmd(argv, trace_to), o / label)
            seconds[label] = wall
            peak = max(peak, rss)
            results.append((label, code, text))
        checked = []
        for label, code, text in results:
            if code != 0:
                checked.append((label, [f"exit code {code}: {text.strip()[-300:]}"]))
                continue
            if traced:
                self.collect([label], o / f"{label}.trace.json")
            checked.append((label, self.check(label, d, o, text)))
        shutil.rmtree(o)
        return sum(seconds.values()), seconds, peak, checked

    def check(self, label: str, d: Path, o: Path, stdout: str) -> list[str]:
        artifact = next(a for name, _, a in RUNS if name == label)
        if artifact is None:
            return [] if stdout.startswith("soficlab ") else [f"--version printed {stdout!r}"]
        digest = hashlib.sha256((o / artifact).read_bytes()).hexdigest()
        if label in self.reference:
            return [] if digest == self.reference[label] else [f"{artifact} differs from the first iteration"]
        self.reference[label] = digest
        return self.verify(label, d, o / artifact)

    def verify(self, label: str, d: Path, artifact: Path) -> list[str]:
        """Full oracle, run on the first copy of each artifact."""
        if label.startswith("cheeger"):
            graph = oracles.load_graph_file(d / ("spectral.json" if label == "cheeger-spectral" else "exact.json"))
            return oracles.check_cheeger(*graph, json.loads(artifact.read_text()))
        if label == "sofic":
            names, _, actions = oracles.load_graph_file(d / "sofic.json")
            return oracles.check_sofic(names, actions, json.loads(artifact.read_text()), self.sizes.cli_sofic_len)
        if label == "report":
            return oracles.check_report(*oracles.load_graph_file(d / "sofic.json"), json.loads(artifact.read_text()))
        if label == "improve":
            names, inverse, actions = oracles.load_graph_file(d / "improve.json")
            improved = np.array(artifact.read_text().split(), dtype=np.int64)
            trace = json.loads(artifact.with_name(artifact.name + ".trace.json").read_text())
            problems, dist = oracles.check_improved(names, inverse, actions, self.corrupted, improved, self.planted, trace)
            if 5 * dist > improved.size:
                problems.append(f"improved map left the planted cluster ({dist} vertices off)")
            return problems
        names, inverse, actions = oracles.load_graph_file(d / "cluster.json")
        doc = json.loads(artifact.read_text())
        expected = inputs.symmetric_table(self.sizes.cli_cluster_k)
        return oracles.check_cluster_group(names, inverse, actions, doc["table"], doc["representatives"], expected)


def measure(seed: int, seconds: float, trace: bool, sizes: inputs.Sizes, setups: int = 3) -> dict:
    """Set up ``setups`` times (only the first set of inputs is used), then
    run timed iterations for ``seconds``; with ``trace``, set-up is traced
    once and one traced iteration follows.  There is no warm-up iteration:
    every command is a fresh process, and set-up has already loaded the
    interpreter, the package and the input files into the page cache."""
    work = ROOT / ".bench_out" / f"cli-batch-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        batch = CliBatch(seed, sizes, work)
        counts = Tally()

        def tally(checked):
            for label, problems in checked:
                counts.record(label, problems)

        setup_times = []
        for i in range(1 if trace else setups):
            wall, problems = batch.setup(work / f"setup-{i}", traced=trace)
            setup_times.append(wall)
            if problems:
                raise RuntimeError(f"set-up failed: {problems}")
        d = work / "setup-0"
        times, per_run, peak = [], {label: [] for label, _, _ in RUNS}, 0.0
        clock = time.perf_counter()
        while not times or time.perf_counter() - clock < seconds:
            total, run_s, rss, checked = batch.iteration(d, len(times) + 1, traced=False)
            tally(checked)
            times.append(total)
            peak = max(peak, rss)
            for label, wall in run_s.items():
                per_run[label].append(wall)
        result = {
            "setup_s": setup_times,
            "iteration_s": times,
            "peak_rss_mb": peak,
        }
        if trace:
            traced, *_, checked = batch.iteration(d, len(times) + 1, traced=True)
            tally(checked)
            extra = {f"cli.{label}.s": statistics.median(v) for label, v in per_run.items() if label != "version"}
            extra["cli.import_s"] = statistics.median(per_run["version"])
            extra["trace.overhead_s"] = traced - statistics.median(times)
            result["per_layer"] = layer_metrics(merge(batch.summaries), extra)
            with open(ROOT / ".bench_out" / "trace-cli-batch.json", "w", encoding="utf-8") as fh:
                json.dump({"workload": "cli-batch", "seed": seed, "processes": batch.spans}, fh, separators=(",", ":"))
        result.update(attempted=counts.attempted, failed=counts.failed, errors=counts.errors[:20])
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)
