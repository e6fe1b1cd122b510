"""Run every workload over several seeds and summarise the spread.

    python3 perfbench/suite.py --seeds 1 2 3 4 5 6 7 8 9 10 --out perfbench/results/x.json
    python3 perfbench/suite.py --seeds 11 12 13 --baseline perfbench/results/x.json

It runs every workload of ``BENCHMARK.json`` for its ``run_seconds``; each
run is its own ``run.py`` process, one after another. For every
end-to-end metric the table gives the median of the runs and the distance
between the first and third quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``. ``--traced`` adds one traced run per
seed, right after the untraced one, and prints the per-layer medians and the
tracing overhead.
``--baseline`` compares the medians with an earlier output file: a metric
that is worse by more than its bound is flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_once(workload: str, seed: int, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    detail = next(line[len("detail "):] for line in lines if line.startswith("detail "))
    return {"seed": seed, "trace": trace, "result": json.loads(lines[-1]),
            "detail": json.loads(detail)}


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def metric_summary(runs: list[dict], names: list[str]) -> dict:
    return {
        name: summarise([run["result"]["metrics"][name]["value"] for run in runs])
        for name in names
    }


def worse_by(metric: dict, new: float, old: float) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if not old:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--baseline", default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    baseline = json.loads(Path(args.baseline).read_text()) if args.baseline else None
    e2e = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    layers = [metric["name"] for metric in SPEC["per_layer"]]
    report: dict = {"seconds": SPEC["run_seconds"], "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        # A traced run follows its untraced twin at once, so that the pair
        # sees the same load on the machine and gives the tracing overhead.
        runs, traced = [], []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, 0))
            if args.traced:
                traced.append(run_once(workload, seed, 1))
        entry = {"runs": runs, "end_to_end": metric_summary(runs, list(e2e))}
        ok &= all(run["result"]["correct"] for run in runs)
        print(f"\n{workload}: {len(runs)} run(s), seeds {args.seeds}, "
              f"correct={all(run['result']['correct'] for run in runs)}, "
              f"failed={sum(run['result']['failed'] for run in runs)}/"
              f"{sum(run['result']['attempted'] for run in runs)}")
        print(f"  {'metric':24s} {'median':>12s} {'unit':6s} {'IQR/med':>8s} {'bound':>6s}"
              + ("  vs baseline" if baseline else ""))
        for name, metric in e2e.items():
            summary = entry["end_to_end"][name]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            flag = "" if summary["spread"] < metric["bound"] / 3 else "  wide"
            line = (f"  {name:24s} {summary['median']:12.4f} {unit:6s} "
                    f"{summary['spread']:8.4f} {metric['bound']:6.2f}{flag}")
            if baseline and workload in baseline["workloads"]:
                old = baseline["workloads"][workload]["end_to_end"][name]["median"]
                change = worse_by(metric, summary["median"], old)
                verdict = "WORSE" if change > metric["bound"] else "ok"
                ok &= verdict == "ok"
                line += f"  {change:+.4f} {verdict}"
            print(line)
        unbounded = {
            name: summarise([run["detail"]["unbounded"][name] for run in runs])
            for name in runs[0]["detail"]["unbounded"]
        }
        entry["unbounded"] = unbounded
        for name, summary in unbounded.items():
            print(f"  {name:24s} {summary['median']:12.4f} {'':6s} {summary['spread']:8.4f}"
                  "   (printed, not bounded)")
        if traced:
            ok &= all(run["result"]["correct"] for run in traced)
            entry["traced_runs"] = traced
            entry["per_layer"] = metric_summary(traced, layers)
            entry["trace_overhead"] = statistics.median(
                twin["result"]["metrics"]["trace.episode_ms.p50"]["value"]
                / run["detail"]["unbounded"]["episode_ms.p50"] - 1
                for run, twin in zip(runs, traced)
            )
            print(f"  per-layer medians of {len(traced)} traced run(s); tracing adds "
                  f"{100 * entry['trace_overhead']:.1f}% to episode_ms.p50 (median of pairs)")
            for name in layers:
                unit = traced[0]["result"]["metrics"][name]["unit"]
                print(f"    {name:32s} {entry['per_layer'][name]['median']:14.4f} {unit}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
