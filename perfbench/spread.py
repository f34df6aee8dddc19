"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads default large-n synthesize \
        --seeds 10 --seconds 30 [--trace 0] [--out perfbench/baseline.json]

For every workload and metric it prints the median of the per-seed values,
the first and third quartiles (statistics.quantiles, n=4), and their distance
as a share of the median, next to the metric's bound from BENCHMARK.json.
`--out` stores the same numbers with a machine stamp under the key
"trace0" or "trace1" of a JSON file, keeping the other key.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    stamp = json.loads(lines[0].split(" ", 1)[1])
    return {"stamp": stamp, "result": json.loads(lines[-1])}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else None,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report, stamp, ok = {}, None, True
    for workload in args.workloads:
        per_metric: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            doc = run_once(workload, seed, args.seconds, args.trace)
            stamp = doc["stamp"]
            res = doc["result"]
            ok &= res["correct"] and res["failed"] == 0
            for name, metric in res["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
        report[workload] = {name: summarize(v) for name, v in per_metric.items()}
        print(f"== {workload}: seeds 1-{args.seeds}, {args.seconds} s runs")
        for name, s in report[workload].items():
            bound = bounds.get(name)
            spread = s["spread"]
            flag = "" if bound is None or spread is None else \
                f"  bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
            print(f"  {name:<34} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
                  f"q3 {s['q3']:.6g}  spread {spread if spread is None else round(spread, 4)}{flag}")
            if bound is not None:
                print("      values " + " ".join(f"{v:.5g}" for v in s["values"]))
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text()) if out.exists() else {}
        doc[f"trace{args.trace}"] = {
            "machine": stamp, "seconds": args.seconds,
            "seeds": list(range(1, args.seeds + 1)),
            "all_correct": ok, "workloads": report}
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
