"""The benchmark's three workloads: set-up, timed units and output checks.

Every workload runs in one process with one thread as a closed loop with
one caller: the next unit starts when the previous one has returned.
Calls go through module attributes (``masker.run_masking_campaign``, not
a name imported from it), so the tracer's wrappers see them.

Why these workloads:

- ``campaign``: seeded 1000-trial masking campaigns alternating between
  the d=4 Abelian and d=3 Ising schemes (paper criteria 2 and 3, what
  ``anyonmask verify`` runs).  Untagged states only, never enters
  ``braid``: a braid-kernel change must show no change here.
- ``braid_sweep``: every op sequence of length <= 3 through
  ``verify_invariance`` at 100 trials with the acceptance seeds
  (criterion 4).  Tagged, channel-split states; any per-sequence cost is
  paid 413 times and not amortised.
- ``cli``: a fixed mix of ``anyonmask`` commands through
  ``anyonmask.cli.main``.  The only workload through argument parsing,
  report writing, ``teleport`` and the MOLS search.  The commands run in
  this process: run as cold processes, their times spread by up to a quarter
  between runs of the same code, beyond any usable bound.  The cold start
  a user pays per command is this workload's ``setup_s`` (a fresh
  interpreter importing ``anyonmask.cli`` and building what the mix uses).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from anyonmask import anyons, braid, masker, qstate

# The defaults reproduce the acceptance suite: campaigns at 20240 (Abelian)
# and 20241 (Ising), sweep sequence i at 40_000 + i, CLI default seed 7.
DEFAULT_SEEDS = {"campaign": 20240, "braid_sweep": 40_000, "cli": 7}

CAMPAIGN_TRIALS = 1000
SWEEP_TRIALS = 100
MASKING_TOL = 1e-12
BRAID_TOL = 2e-12
UNITARITY_TOL = 1e-12
CONTROL_MIN_DISTANCE = 0.1
# Enough units that the 90th percentile always has ten beyond it.
MIN_UNITS = 100
# A braid_sweep cycle is this share of a whole sweep (413 = 7 x 59 sequences).
SWEEP_BLOCKS = 7
# Units run twice, untraced then traced, in a traced run.
TRACED_CAMPAIGN_PAIRS = 10

ABELIAN_TOKENS = ("xAB", "xBC", "cAB", "cAC", "cBC")
ISING_TOKENS = ABELIAN_TOKENS + ("t3",)
CLI_BRAIDS_PER_MODEL = 3
CLI_TELEPORTS = 3
MOLS_ORDERS = (3, 4, 5)


def op_strings(tokens: tuple[str, ...]) -> list[str]:
    """Every op string of length 1 to 3, in the acceptance suite's order."""
    return [";".join(seq) for length in (1, 2, 3) for seq in itertools.product(tokens, repeat=length)]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of the mix; ``key`` names identical invocations."""

    key: str
    kind: str
    argv: tuple[str, ...]
    trials: int
    writes_report: bool


@dataclass
class Setup:
    schemes: dict[str, Any]
    sequences: list[tuple[str, str, tuple, int]] = field(default_factory=list)
    commands: list[Command] = field(default_factory=list)


@dataclass
class Unit:
    """One timed unit of work and the verdict of its output check (None: correct).

    Checks run right after the unit, outside its timing, so a run holds no
    large outputs that would make the garbage collector slower as it goes.
    """

    group: str
    seconds: float
    trials: int
    problem: Optional[str]
    output: Any = None


def cli_commands(seed: int) -> list[Command]:
    rng = np.random.default_rng(seed)
    commands = [
        Command(f"verify-{model}", "verify",
                ("verify", "--model", model, "--trials", str(CAMPAIGN_TRIALS), "--seed", str(seed + i)),
                CAMPAIGN_TRIALS, True)
        for i, model in enumerate(("abelian", "ising"))
    ]
    for model, tokens in (("abelian", ABELIAN_TOKENS), ("ising", ISING_TOKENS)):
        texts = op_strings(tokens)
        for pick in sorted(rng.choice(len(texts), CLI_BRAIDS_PER_MODEL, replace=False).tolist()):
            commands.append(Command(
                f"braid-{model}-{texts[pick]}", "braid",
                ("braid", "--model", model, "--ops", texts[pick], "--trials", str(SWEEP_TRIALS),
                 "--tol", repr(BRAID_TOL), "--seed", str(seed + len(commands))),
                SWEEP_TRIALS, True))
    commands += [Command(f"mols-{d}", "mols", ("mols", "--dim", str(d)), 0, False) for d in MOLS_ORDERS]
    for i in range(CLI_TELEPORTS):
        z = masker.random_unit_coeffs(3, rng)
        text = ",".join(f"{c.real:.17f}{c.imag:+.17f}i" for c in z)
        commands.append(Command(f"teleport-{i}", "teleport", ("teleport", f"--input={text}"), 0, True))
    return commands


def setup(workload: str, seed: int) -> Setup:
    """Everything a workload pays before its first trial: models, schemes, parsed ops."""
    for model in (anyons.abelian_c0(), anyons.ising_like(1)):
        report = anyons.validate_model(model)
        if not report.ok:
            raise RuntimeError(f"model {model.name} fails validation: {report.violations}")
    ctx = Setup(schemes={"abelian": masker.abelian_standard_scheme(), "ising": masker.ising_cyclic_scheme()})
    if workload == "braid_sweep":
        for model, tokens in (("abelian", ABELIAN_TOKENS), ("ising", ISING_TOKENS)):
            for i, text in enumerate(op_strings(tokens)):
                ctx.sequences.append((model, text, braid.parse_ops(text), seed + i))
    elif workload == "cli":
        import anyonmask.cli  # noqa: F401  (the commands' entry point)

        ctx.commands = cli_commands(seed)
        for command in ctx.commands:
            if command.kind == "braid":
                braid.parse_ops(command.argv[command.argv.index("--ops") + 1])
    elif workload != "campaign":
        raise ValueError(f"unknown workload {workload!r}")
    return ctx


def run_cycles(cycle: Callable[[], list[Unit]], seconds: float) -> list[Unit]:
    """Repeat whole cycles until MIN_UNITS are done and another cycle would overrun ``seconds``."""
    units: list[Unit] = []
    began = time.perf_counter()
    while True:
        t = time.perf_counter()
        units.extend(cycle())
        now = time.perf_counter()
        if len(units) >= MIN_UNITS and (now - began) + (now - t) > seconds:
            return units


# -- in-process workloads ----------------------------------------------------

def campaign_unit(ctx: Setup, index: int, seed: int) -> Unit:
    group = ("abelian", "ising")[index % 2]
    t = time.perf_counter()
    result = masker.run_masking_campaign(ctx.schemes[group], CAMPAIGN_TRIALS, seed + index, MASKING_TOL)
    seconds = time.perf_counter() - t
    return Unit(group, seconds, CAMPAIGN_TRIALS, check_campaign(result))


def campaign_cycle(ctx: Setup, seed: int) -> Callable[[], list[Unit]]:
    counter = itertools.count()

    def cycle() -> list[Unit]:
        return [campaign_unit(ctx, next(counter), seed) for _ in range(2)]

    return cycle


def sweep_unit(ctx: Setup, index: int) -> Unit:
    model, _, ops, seed = ctx.sequences[index]
    t = time.perf_counter()
    report = braid.verify_invariance(ctx.schemes[model], ops, SWEEP_TRIALS, BRAID_TOL, seed)
    seconds = time.perf_counter() - t
    return Unit(model, seconds, SWEEP_TRIALS, check_sweep(report))


def sweep_cycle(ctx: Setup, seed: int) -> Callable[[], list[Unit]]:
    # The run walks seeded shuffles of the sweep, one after another, a
    # seventh of a sweep per cycle, so it fills its seconds rather than
    # stopping after one whole sweep.  The shuffle spreads the slow
    # length-3 sequences of each model over the whole run, so the median
    # and the tail see the same mix of machine speed as the rest of it.
    rng = np.random.default_rng(seed)
    order = itertools.chain.from_iterable(rng.permutation(len(ctx.sequences)).tolist() for _ in itertools.count())
    block = -(-len(ctx.sequences) // SWEEP_BLOCKS)
    return lambda: [sweep_unit(ctx, i) for i in itertools.islice(order, block)]


def check_campaign(result) -> Optional[str]:
    """None if a masking campaign passed at the campaign tolerance, else why not."""
    if not result.verdict or result.failed_trials:
        return f"campaign seed {result.seed}: verdict fail ({result.failed_trials} failed trials)"
    if not result.worst_deviation <= MASKING_TOL:
        return f"campaign seed {result.seed}: worst deviation {result.worst_deviation!r} > {MASKING_TOL}"
    return None


def check_sweep(report) -> Optional[str]:
    """None if a braid-invariance report passed at the sweep tolerance, else why not."""
    ops = ";".join(op.token() for op in report.ops)
    if not report.verdict:
        return f"braid {ops} seed {report.seed}: verdict fail"
    if not report.worst_deviation <= BRAID_TOL:
        return f"braid {ops} seed {report.seed}: worst deviation {report.worst_deviation!r} > {BRAID_TOL}"
    if not report.unitarity_defect <= UNITARITY_TOL:
        return f"braid {ops} seed {report.seed}: unitarity defect {report.unitarity_defect!r}"
    return None


def negative_controls() -> list[tuple[str, Optional[str]]]:
    """Checks a program that always says "pass" would fail."""
    results = []
    for model in (anyons.abelian_c0(), anyons.ising_like(1)):
        distance = masker.bipartite_control(model).max_distance
        results.append((f"bipartite-control-{model.name}",
                        None if distance > CONTROL_MIN_DISTANCE else f"witness distance {distance!r} too small"))
        product = masker.verify_masking(qstate.basis_state((anyons.VAC,) * 3), model.alphabet)
        results.append((f"product-state-{model.name}", "product state passed" if product.verdict else None))
    return results


# -- cli workload -------------------------------------------------------------

def mols_problem(text: str, d: int) -> Optional[str]:
    """None if ``text`` holds two orthogonal Latin squares of order d, else why not."""
    blocks = [block for block in text.strip().split("\n\n") if block.strip()]
    if len(blocks) != 2:
        return f"mols d={d}: expected 2 squares, got {len(blocks)}"
    squares = [[line.split() for line in block.strip().splitlines()] for block in blocks]
    symbols = {str(x) for x in range(d)}
    for square in squares:
        lines = square + [list(col) for col in zip(*square)]
        if len(square) != d or any(len(line) != d or set(line) != symbols for line in lines):
            return f"mols d={d}: a square is not Latin"
    pairs = {(a, b) for row_a, row_b in zip(*squares) for a, b in zip(row_a, row_b)}
    if len(pairs) != d * d:
        return f"mols d={d}: squares are not orthogonal ({len(pairs)} distinct pairs)"
    return None


def report_problem(kind: str, payload: dict) -> Optional[str]:
    """None if a CLI report shows a correct result, else why not."""
    results = payload.get("results", {})
    if payload.get("verdict") != "pass":
        return f"{kind}: verdict {payload.get('verdict')!r}"
    if kind == "verify":
        if results["failed_trials"] or not results["worst_deviation"] <= MASKING_TOL:
            return f"verify: worst deviation {results['worst_deviation']!r}"
    elif kind == "braid":
        if not results["worst_deviation"] <= BRAID_TOL:
            return f"braid: worst deviation {results['worst_deviation']!r}"
        if not results["unitarity_defect"] <= UNITARITY_TOL:
            return f"braid: unitarity defect {results['unitarity_defect']!r}"
    elif kind == "teleport":
        for outcome in results["outcomes"]:
            if not abs(outcome["probability"] - 1.0 / 3.0) <= MASKING_TOL:
                return f"teleport: outcome probability {outcome['probability']!r}"
            if not abs(outcome["fidelity"] - 1.0) <= MASKING_TOL:
                return f"teleport: fidelity {outcome['fidelity']!r}"
    return None


@dataclass
class CliOutput:
    command: Command
    returncode: int
    report: Optional[bytes]
    stdout: str


def cli_problem(out: CliOutput) -> Optional[str]:
    """None if one CLI invocation exited 0 with a correct output, else why not."""
    if out.returncode != 0:
        return f"{out.command.key}: exit code {out.returncode}"
    if out.command.kind == "mols":
        return mols_problem(out.stdout, int(out.command.argv[-1]))
    try:
        payload = json.loads(out.report)
    except (TypeError, ValueError):
        return f"{out.command.key}: unreadable report"
    return report_problem(out.command.kind, payload)


def determinism_problems(outputs: list[CliOutput]) -> list[tuple[str, Optional[str]]]:
    """Identical invocations must give byte-identical reports (criterion 8)."""
    seen: dict[str, set] = {}
    for out in outputs:
        seen.setdefault(out.command.key, set()).add(out.report if out.command.writes_report else out.stdout)
    return [(f"identical-{key}", None if len(variants) == 1 else f"{key}: {len(variants)} distinct outputs")
            for key, variants in seen.items()]


def child_env(root: Path) -> dict[str, str]:
    """This process's environment with the checkout's ``src`` as the only PYTHONPATH."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def cli_cycle(ctx: Setup, out_dir: Path) -> Callable[[], list[Unit]]:
    counter = itertools.count()

    def cycle() -> list[Unit]:
        n = next(counter)
        units = []
        for i, command in enumerate(ctx.commands):
            seconds, out = run_in_process(command, out_dir, f"c{n}-{i}")
            units.append(Unit(command.kind, seconds, command.trials, cli_problem(out), out))
        return units

    return cycle


def run_in_process(command: Command, out_dir: Path, tag: str) -> tuple[float, CliOutput]:
    """Replay one command through ``anyonmask.cli.main`` in this process."""
    cli = sys.modules["anyonmask.cli"]
    report_path = out_dir / f"{tag}.json"
    argv = list(command.argv) + (["--out", str(report_path)] if command.writes_report else [])
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
        t = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t
    report = report_path.read_bytes() if command.writes_report and report_path.exists() else None
    return seconds, CliOutput(command, code, report, captured.getvalue())
