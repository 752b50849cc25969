"""Run the benchmark several times per workload and summarise its spread.

    python3 bench/collect.py --runs 10 --first-seed 201 --label baseline
    python3 bench/collect.py --runs 10 --first-seed 301 --label baseline2 --against baseline

Every workload of BENCHMARK.json runs ``--runs`` times untraced for its
``run_seconds``, then once traced.  Run i uses seed first_seed + i for
every workload, and the workloads take turns, so slow drift of the
machine's speed reaches all of them alike.  A second set with another
``--first-seed`` checks that the medians hold on inputs the first set did
not see.  For each workload and end-to-end metric it prints the median and
the distance between the first and third quartile as a share of the
median, beside the metric's bound.  ``--against`` also prints how much
worse each median is than in an earlier set, as a share of that set's
median.  With ``--label`` it writes ``bench/results/BENCH_<label>.json``:
every run's result, environment and reference-loop time, the summary, and
the traced runs' per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {done.returncode}:\n{done.stdout}{done.stderr}")
    record = json.loads((ROOT / ".bench_run" / f"result-{workload}-trace{trace}.json").read_text())
    if not trace:
        del record["all_metrics"]
    return {"workload": workload, "seed": seed, "trace": trace, **record}


def summarise(records: list[dict], spec: dict) -> dict:
    summary: dict = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        for workload in dict.fromkeys(r["workload"] for r in records):
            values = [r["result"]["metrics"][name]["value"] for r in records if r["workload"] == workload]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary.setdefault(workload, {})[name] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": quartile_spread(values),
                "bound": metric["bound"],
                "values": values,
            }
    return summary


def worsening(median: float, earlier: float, better: str) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of ``earlier`` (negative: better)."""
    change = (median - earlier) / earlier
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--label", default=None, help="write bench/results/BENCH_<label>.json")
    parser.add_argument("--against", default=None, help="compare medians with bench/results/BENCH_<label>.json")
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    earlier = None
    if args.against:
        earlier = json.loads((BENCH / "results" / f"BENCH_{args.against}.json").read_text())["summary"]

    records = []
    for i in range(args.runs):
        for workload in workloads:
            records.append(run(workload, args.first_seed + i, seconds, 0))
            print(f"run {i + 1}/{args.runs} {workload}: "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in records[-1]["result"]["metrics"].items()),
                  flush=True)
    traced = [run(w, args.first_seed, seconds, 1) for w in workloads]
    summary = summarise(records, spec)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    print(f"\n{'workload':12s} {'metric':14s} {'median':>12s} {'spread':>8s} {'bound':>6s}"
          + (f" {'worse':>8s}" if earlier else ""))
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            line = f"{workload:12s} {name:14s} {s['median']:12.6g} {s['spread']:8.4f} {s['bound']:6.2f}"
            if earlier:
                s["worse_than_" + args.against] = worsening(s["median"], earlier[workload][name]["median"],
                                                            better[name])
                line += f" {s['worse_than_' + args.against]:8.4f}"
            if s["spread"] >= s["bound"] / 3:
                line += "  (spread above a third of the bound)"
            if s.get(f"worse_than_{args.against}", 0.0) > s["bound"]:
                line += "  (median worse by more than the bound)"
            print(line)
    if args.label:
        out = BENCH / "results" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps({"runs": records, "traced_runs": traced, "summary": summary}, indent=1) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
