"""Run every workload for several seeds and summarise the spread of each metric.

    python3 perfbench/baseline.py [--seeds 10] [--first-seed 0] [--out perfbench/baseline.json]

For each workload and end-to-end metric this prints the median over the
runs, the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and the
metric's bound from BENCHMARK.json.  It then makes one traced run per
workload with the first seed.  ``--out`` writes every run's result and
provenance as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
           "--trace", str(trace)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=200)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr}")
    return {"workload": workload, "seed": seed, "trace": trace,
            **json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarise(runs: list[dict]) -> dict:
    out = {}
    for metric in SPEC["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / median, "bound": metric["bound"]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs, summary = [], {}
    for w in SPEC["workloads"]:
        name = w["name"]
        batch = []
        for seed in seeds:
            batch.append(one_run(name, seed, 0))
            r = batch[-1]["result"]
            print(f"{name} seed {seed}: correct {r['correct']} "
                  f"{r['failed']}/{r['attempted']} failed, "
                  + ", ".join(f"{k} {v['value']:.4f}" for k, v in r["metrics"].items()),
                  flush=True)
        runs += batch
        summary[name] = summarise(batch)
        for metric, s in summary[name].items():
            flag = "" if s["spread"] <= s["bound"] / 3 else "  (above a third of the bound)"
            print(f"  {metric:12s} median {s['median']:.4f}  spread {s['spread']:.4f}"
                  f"  bound {s['bound']}{flag}", flush=True)
    for w in SPEC["workloads"]:
        runs.append(one_run(w["name"], args.first_seed, 1))
        r = runs[-1]["result"]
        print(f"{w['name']} traced: correct {r['correct']} "
              f"{r['failed']}/{r['attempted']} failed", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"summary": summary, "runs": runs},
                                       indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
