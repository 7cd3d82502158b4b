"""Run the benchmark over several seeds and record one point of the perf trajectory.

    python3 bench/trajectory.py --tag seed --seeds 1-10 --note "..."

For every workload this runs ``bench/run.py`` once per seed (end to end) and
once traced, then writes ``bench/trajectory/BENCH_<tag>.json`` with each
metric's median, quartiles and spread (quartile distance over median), every
run's figures, the git sha, python/numpy versions and nproc.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else None}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--tag", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--note", action="append", default=[])
    args = parser.parse_args()

    doc = {"tag": args.tag, "run_seconds": spec["run_seconds"], "seeds": args.seeds, "notes": args.note, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            details, result = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append({"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"], **{k: m["value"] for k, m in result["metrics"].items()},
                         "wall_samples": details["wall_s"]["samples"]})
            print(json.dumps({"workload": workload, **runs[-1]}), flush=True)
            doc.update({key: details[key] for key in ("git_sha", "python", "numpy", "nproc")})
        traced_details, traced = run_once(workload, args.seeds[0], spec["run_seconds"], 1)
        doc["workloads"][workload] = {
            "why": details["why"],
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": {m["name"]: {**spread([r[m["name"]] for r in runs]), "unit": m["unit"], "bound": m["bound"]}
                           for m in spec["end_to_end"]},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_seed": args.seeds[0],
            **{key: traced_details[key] for key in ("by_operation",) if key in traced_details},
            "runs": runs,
        }
    out = BENCH / "trajectory" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for workload, w in doc["workloads"].items():
        for name, m in w["end_to_end"].items():
            print(f"{workload:14s} {name:12s} median {m['median']:.4g} {m['unit']}  spread {m['spread']:.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
