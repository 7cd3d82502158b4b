"""soficlab benchmark: one workload per run, end to end or traced.

    python3 bench/run.py --workload closure-s4 --seed 1 --seconds 15 --trace 0

Each run builds its inputs from ``--seed``, runs timed iterations for
``--seconds`` as a closed loop with one caller (after one untimed warm-up
iteration for the in-process workloads), and checks every output against an
oracle of its own (``bench/oracles.py``).  The in-process workloads run in a fresh
``bench/worker.py`` process; set-up is repeated in two more fresh processes
and the median is reported.  ``--trace 1`` adds a traced iteration and reports
the per-layer metrics of ``bench/tracer.py`` instead of the end-to-end ones.

Standard output ends with a details line (sample counts, quartiles, seed,
versions) and the result line
``{"correct", "attempted", "failed", "metrics"}``.  Exit code 0 when a result
was printed, 2 when the sources under ``src/`` are missing.
"""

import os

# BLAS pools are pinned here, by the benchmark's environment, before numpy
# loads; every process the benchmark starts inherits the setting.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import cli_batch  # noqa: E402
import inputs  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# Why each workload is in the benchmark, one line each (also in BENCHMARK.json).
WORKLOADS = {
    "closure-s4": "many tiny improve calls (28,800 on 24 inputs) in the cluster closure and LEF; clusters and per-call overhead dominate",
    "improve-n2000": "few improve calls on a 4e6-vertex product graph; smoothing, sweep, boundary and peak RSS dominate, clusters unused",
    "cli-batch": "fresh CLI processes: import, JSON parse/serialize, manifests, lambda2 to max_iter, exact Cheeger, sofic defects",
}
END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
SETUP_SAMPLES = 3
RUN_DEADLINE_S = 170


def quartiles(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values)}


def git_sha() -> str:
    """The commit of the checkout, read from .git without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_worker(args, deadline: float, *extra: str) -> dict:
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    cmd += ["--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=cli_batch.child_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> dict:
    """Raw figures of one run: setup_s (list), iteration_s (list), peak_rss_mb,
    attempted, failed, errors and, when traced, per_layer."""
    sizes = inputs.TINY if args.tiny else inputs.FULL
    deadline = time.monotonic() + RUN_DEADLINE_S
    if args.workload == "cli-batch":
        return cli_batch.measure(args.seed, args.seconds, bool(args.trace), sizes, setups=SETUP_SAMPLES)
    setups = [] if args.trace else [
        run_worker(args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_SAMPLES - 1)
    ]
    raw = run_worker(args, deadline)
    raw["setup_s"] = setups + [raw["setup_s"]]
    return raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "soficlab" / "__init__.py").is_file():
        print(f"bench: no soficlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    raw = measure(args)
    for error in raw["errors"]:
        print(f"bench: {error}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": raw["per_layer"][name], "unit": unit} for name, unit, _ in LAYER_METRICS}
    else:
        values = {
            "wall_s": statistics.median(raw["iteration_s"]),
            "setup_s": statistics.median(raw["setup_s"]),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    details = {
        "workload": args.workload,
        "why": WORKLOADS[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "wall_s": quartiles(raw["iteration_s"]),
        "setup_s": quartiles(raw["setup_s"]),
        "error_rate": raw["failed"] / raw["attempted"] if raw["attempted"] else 1.0,
        **{key: raw[key] for key in ("recovery_dist", "by_operation") if key in raw},
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": raw["failed"] == 0 and raw["attempted"] > 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
