"""Run the teleportation pipeline on a few inputs and print the records.

Numbers are read as the command line reads them: ASCII digits, no
``_``; a count or seed it refuses exits 2.

Usage: python scripts/teleport_demo.py [--random N] [--seed S]
"""

import argparse

import numpy as np

from anyonmask.cli import _ascii
from anyonmask.masker import random_unit_coeffs
from anyonmask.qstate import check_seed
from anyonmask.teleport import run_teleport


def show(label: str, coeffs) -> None:
    run = run_teleport(coeffs)
    print(f"input {label}: " + ", ".join(f"{z:.4f}" for z in run.coeffs))
    for outcome in run.outcomes:
        print(
            f"  outcome {outcome.outcome}: p = {outcome.probability:.12f}, "
            f"fidelity = {outcome.fidelity:.12f}"
        )
    print(
        f"  alice marginal deviations: {run.alice_marginal_deviations[0]:.3e}, "
        f"{run.alice_marginal_deviations[1]:.3e}"
    )
    print(f"  held-register deviation from I/3 (informational): {run.held_marginal_deviation:.3e}")
    print(f"  verdict: {'pass' if run.verdict else 'fail'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--random", type=_ascii(int), default=3, help="number of random inputs")
    parser.add_argument("--seed", type=_ascii(int), default=7)
    args = parser.parse_args()
    try:
        check_seed(args.random, "--random")
        check_seed(args.seed, "--seed")
    except ValueError as exc:
        parser.error(str(exc))

    show("basis |1>", [1.0, 0.0, 0.0])
    show("0.6|1> + 0.8i|eps>", [0.6, 0.8j, 0.0])
    rng = np.random.default_rng(args.seed)
    for i in range(args.random):
        show(f"random {i}", random_unit_coeffs(3, rng))


if __name__ == "__main__":
    main()
