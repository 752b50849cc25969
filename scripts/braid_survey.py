"""Sweep every braid-op sequence up to a given length and verify masking.

The op set is both adjacent exchanges, all three circles, and (for the
Ising model) the tripartite braid.  Prints the worst marginal deviation
over the whole sweep and lists any failing sequences.

Numbers are read as the command line reads them: ASCII digits, no
``_``; a count, seed or tolerance it refuses exits 2.

Usage: python scripts/braid_survey.py [--model abelian|ising] [--max-len L] [--trials N] [--tol T] [--seed S]
"""

import argparse
import itertools

from anyonmask.braid import op_set, verify_invariance
from anyonmask.cli import _ascii
from anyonmask.masker import DEFAULT_SEED, DEFAULT_TOL, DEFAULT_TRIALS, abelian_standard_scheme, ising_cyclic_scheme
from anyonmask.qstate import check_seed, check_tol


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", choices=("abelian", "ising"), default="ising")
    parser.add_argument("--max-len", type=_ascii(int), default=3)
    parser.add_argument("--trials", type=_ascii(int), default=DEFAULT_TRIALS)
    parser.add_argument("--tol", type=_ascii(float), default=DEFAULT_TOL)
    parser.add_argument("--seed", type=_ascii(int), default=DEFAULT_SEED)
    args = parser.parse_args()
    try:
        check_seed(args.max_len, "--max-len", positive=True)
        check_seed(args.trials, "--trials", positive=True)
        check_seed(args.seed, "--seed")
        check_tol(args.tol, "--tol")
    except ValueError as exc:
        parser.error(str(exc))

    scheme = abelian_standard_scheme() if args.model == "abelian" else ising_cyclic_scheme()
    ops = op_set(args.model)
    worst = 0.0
    worst_sequence = ""
    failures = []
    count = 0
    for length in range(1, args.max_len + 1):
        for sequence in itertools.product(ops, repeat=length):
            token = ";".join(op.token() for op in sequence)
            report = verify_invariance(
                scheme, sequence, trials=args.trials, tol=args.tol, seed=args.seed + count
            )
            if report.worst_deviation > worst:
                worst = report.worst_deviation
                worst_sequence = token
            if not report.verdict:
                failures.append(token)
            count += 1
    print(
        f"{scheme.model.name}: {count} sequences x {args.trials} trials, "
        f"worst deviation {worst:.3e} (sequence {worst_sequence})"
    )
    if failures:
        print("failing sequences:")
        for token in failures:
            print(f"  {token}")
    else:
        print(f"all sequences preserve masking within {args.tol:g}")


if __name__ == "__main__":
    main()
