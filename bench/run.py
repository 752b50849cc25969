"""Run the anyonmask benchmark and print its metrics.

    python3 bench/run.py --workload campaign --seed 1 --seconds 35 --trace 0
    python3 bench/run.py                  # all three workloads, default seeds

A single-workload run prints each metric by name and unit, then, as its
last line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``.  It exits 1 when
an output check or a negative control fails and 2 when the program's
source is missing.  Scratch files, the run record and the spans go to
``.bench_run/`` at the repository root.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported here or in any child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"
WORKLOADS = ("campaign", "braid_sweep", "cli")
# Set-up is timed this many times before the timed loop and as many after
# it, so a change of the machine's speed during the run reaches both.
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
REFERENCE_LOOP_N = 1_000_000


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import ``anyonmask`` from this checkout's ``src``, and never from anywhere else."""
    package = ROOT / "src" / "anyonmask"
    if not (package / "__init__.py").is_file():
        fail(f"no anyonmask source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import anyonmask

    if Path(anyonmask.__file__).resolve().parent != package.resolve():
        fail(f"imported anyonmask from {anyonmask.__file__}, not from {package}")


def reference_loop_ms() -> float:
    """A fixed pure-Python loop; its time tells machine-speed drift from program changes."""
    t = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP_N):
        total += i * i
    return (time.perf_counter() - t) * 1e3


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args: argparse.Namespace) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def probe_seconds(probe_args: list[str], env: dict, repeats: int) -> list[float]:
    """Seconds of ``setup_probe.py`` in each of ``repeats`` fresh interpreters."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), *probe_args],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def unit_checks(workload: str, units: list) -> list[tuple[str, str | None]]:
    import workloads as w

    checks = [(f"unit-{i}", unit.problem) for i, unit in enumerate(units)]
    if workload == "cli":
        checks += w.determinism_problems([unit.output for unit in units])
    return checks + w.negative_controls()


def end_to_end(workload: str, seed: int, seconds: float, env: dict) -> tuple[dict, dict, list]:
    """Untraced run: the end-to-end metrics, extra facts to print, and the checks."""
    import workloads as w
    from stats import unit_metrics

    setup_times = probe_seconds([workload, str(seed)], env, SETUP_REPEATS)
    ctx = w.setup(workload, seed)
    gc.collect()
    if workload == "campaign":
        units = w.run_cycles(w.campaign_cycle(ctx, seed), seconds)
    elif workload == "braid_sweep":
        units = w.run_cycles(w.sweep_cycle(ctx, seed), seconds)
    else:
        out_dir = fresh_dir(RUN_DIR / "cli")
        units = w.run_cycles(w.cli_cycle(ctx, out_dir), seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_times += probe_seconds([workload, str(seed)], env, SETUP_REPEATS)
    align = {"campaign": 2, "braid_sweep": 1, "cli": len(ctx.commands)}[workload]
    metrics, facts = unit_metrics(units, align, split_median=workload == "campaign")
    metrics.update(setup_s=statistics.median(setup_times), peak_rss_mb=peak_kb / 1024.0)
    return metrics, facts, unit_checks(workload, units)


def traced(workload: str, seed: int, env: dict) -> tuple[dict, dict, list]:
    """Traced run: each unit of a fixed amount of work runs untraced, then traced."""
    import workloads as w
    from tracer import Tracer, layer_metrics

    tracer = Tracer()
    t = time.perf_counter()
    with tracer.active():
        ctx = w.setup(workload, seed)
    setup_traced = time.perf_counter() - t
    if workload == "campaign":
        jobs = [lambda tag, i=i: w.campaign_unit(ctx, i, seed) for i in range(2 * w.TRACED_CAMPAIGN_PAIRS)]
    elif workload == "braid_sweep":
        jobs = [lambda tag, i=i: w.sweep_unit(ctx, i) for i in range(len(ctx.sequences))]
    else:
        out_dir = fresh_dir(RUN_DIR / "cli")

        def replay(tag, i, command):
            seconds, out = w.run_in_process(command, out_dir, f"{tag}-{i}")
            return w.Unit(command.kind, seconds, command.trials, w.cli_problem(out), out)

        jobs = [lambda tag, i=i, c=c: replay(tag, i, c) for i, c in enumerate(ctx.commands)]
    plain_s = traced_s = 0.0
    units = []
    for job in jobs:
        plain = job("plain")
        with tracer.active():
            spanned = job("traced")
        plain_s += plain.seconds
        traced_s += spanned.seconds
        units += [plain, spanned]
    layers = layer_metrics(tracer, int((traced_s + setup_traced) * 1e9))
    layers["trace.overhead"] = traced_s / plain_s
    layers["cli.import_ms"] = statistics.median(probe_seconds(["import", "anyonmask"], env, IMPORT_REPEATS)) * 1e3
    layers["cli.numpy_import_ms"] = statistics.median(probe_seconds(["import", "numpy"], env, IMPORT_REPEATS)) * 1e3
    layers["cli.report_bytes"] = sum(len(u.output.report or b"") for u in units[1::2] if u.output is not None)
    tracer.write(RUN_DIR / f"spans-{workload}.npz")
    facts = {"spans": len(tracer.start), "plain_s": plain_s, "traced_s": traced_s, "units": len(jobs)}
    return layers, facts, unit_checks(workload, units)


def run_one(args: argparse.Namespace) -> int:
    load_program()
    import workloads as w
    from tracer import metric_unit

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seed is None:
        args.seed = w.DEFAULT_SEEDS[args.workload]
    RUN_DIR.mkdir(exist_ok=True)
    env = w.child_env(ROOT)
    info = {"reference_loop_ms_before": reference_loop_ms()}
    if args.trace:
        values, facts, checks = traced(args.workload, args.seed, env)
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values, facts, checks = end_to_end(args.workload, args.seed, args.seconds, env)
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    info["reference_loop_ms_after"] = reference_loop_ms()
    failed = [(label, problem) for label, problem in checks if problem is not None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name in sorted(values) if args.trace else wanted:
        value = values.get(name)
        unit = wanted.get(name) or metric_unit(name)
        print(f"  {name:40s} {'-' if value is None else f'{value:.6g}':>14s} {unit}")
    print(f"  {'fail_ratio':40s} {len(failed) / len(checks):>14.6g} ratio ({len(failed)} of {len(checks)} operations)")
    for key, value in facts.items():
        print(f"  {key:40s} {value!s:>14s}")
    for label, problem in failed[:20]:
        print(f"  FAILED {label}: {problem}")
    env_record = environment(args)
    print("env: " + json.dumps(env_record, sort_keys=True))
    print("info: " + json.dumps(info, sort_keys=True))

    missing = [name for name in wanted if values.get(name) is None]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()},
    }
    record = {"env": env_record, "info": info, "facts": facts, "result": result, "all_metrics": values,
              "failures": failed}
    (RUN_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, then one table of every metric."""
    results, status = {}, 0
    for workload in WORKLOADS:
        command = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        done = subprocess.run(command, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        if done.returncode in (0, 1):
            results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(dict.fromkeys(name for r in results.values() for name in r["metrics"]))
    print(f"\n{'metric':40s}" + "".join(f"{w:>14s}" for w in results) + "  unit")
    for name in names:
        cells = [r["metrics"].get(name) for r in results.values()]
        unit = next(c["unit"] for c in cells if c is not None)
        print(f"{name:40s}" + "".join(f"{c['value']:14.6g}" if c else f"{'-':>14s}" for c in cells) + f"  {unit}")
    ratios = [r["failed"] / r["attempted"] for r in results.values()]
    print(f"{'fail_ratio':40s}" + "".join(f"{x:14.6g}" for x in ratios) + "  ratio")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload; all three when omitted")
    parser.add_argument("--seed", type=int, default=None, help="workload seed (default: the acceptance seeds)")
    parser.add_argument("--seconds", type=float, default=35.0, help="how long the untraced run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: traced run, per-layer metrics")
    args = parser.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
