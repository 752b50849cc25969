"""One op-string grammar: ``parse_ops`` reads exactly the tokens ``BraidOp.token`` writes.

Before, a token named parties ``A`` to ``Z`` and dropped the channel mode,
while ``parse_ops`` read only ``A`` to ``C``: a resolved exchange was
recorded as ``"xAB"``, the token of the split exchange, and the token
``"xDE"`` of ``BraidOp("exchange", 3, 4)`` did not parse.
"""

import ast
import itertools
from pathlib import Path


from anyonmask.braid import (
    CHANNEL_MODES,
    CIRCLE,
    EXCHANGE,
    TRIPARTITE,
    BraidError,
    BraidOp,
    op_set,
    parse_ops,
    verify_invariance,
)
from anyonmask.masker import ising_cyclic_scheme
from test_refusals import refusals, refuse

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def every_op() -> list[BraidOp]:
    """Every op ``BraidOp`` accepts: parties 0 to 25, every kind and mode."""
    ops = []
    fields = [(TRIPARTITE, None, None)] + [
        (kind, x, y) for kind in (EXCHANGE, CIRCLE) for x, y in itertools.product(range(26), repeat=2)
    ]
    for (kind, x, y), mode in itertools.product(fields, CHANNEL_MODES):
        try:
            ops.append(BraidOp(kind, x, y, mode))
        except BraidError:
            pass
    return ops


def test_every_op_reads_back_from_its_token():
    ops = every_op()
    # 50 exchanges in three modes, 650 circles and the tripartite braid
    assert len(ops) == 801
    assert len({op.token() for op in ops}) == 801
    assert [op for op in ops if parse_ops(op.token()) != (op,)] == []


def test_a_whole_sequence_reads_back_from_its_record():
    ops = (BraidOp(EXCHANGE, 0, 1, "eps"), BraidOp(CIRCLE, 2, 0), BraidOp(TRIPARTITE), BraidOp(EXCHANGE, 2, 1, "1"))
    assert parse_ops(";".join(op.token() for op in ops)) == ops


def test_the_record_of_a_resolved_exchange_names_its_mode():
    scheme = ising_cyclic_scheme()
    resolved = verify_invariance(scheme, (BraidOp(EXCHANGE, 0, 1, "eps"),), trials=5).record()
    split = verify_invariance(scheme, (BraidOp(EXCHANGE, 0, 1),), trials=5).record()
    assert (resolved["ops"], split["ops"]) == ("xAB:eps", "xAB")


def test_op_sets_are_the_sweep_ops():
    abelian = (
        BraidOp(EXCHANGE, 0, 1),
        BraidOp(EXCHANGE, 1, 2),
        BraidOp(CIRCLE, 0, 1),
        BraidOp(CIRCLE, 0, 2),
        BraidOp(CIRCLE, 1, 2),
    )
    assert op_set("abelian") == abelian
    assert op_set("ising") == abelian + (BraidOp(TRIPARTITE),)


def _bench_tokens() -> dict[str, tuple[str, ...]]:
    """The ``*_TOKENS`` tuples of ``bench/workloads.py``, each a literal or a sum of earlier ones."""
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"), str(WORKLOADS))
    found: dict[str, tuple[str, ...]] = {}

    def value(node: ast.expr) -> tuple[str, ...]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return value(node.left) + value(node.right)
        if isinstance(node, ast.Name):
            return found[node.id]
        return ast.literal_eval(node)

    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            if node.targets[0].id.endswith("_TOKENS"):
                found[node.targets[0].id] = value(node.value)
    return found


def test_the_bench_sweep_runs_the_library_op_sets():
    # the bench is read with ast, not imported, so the sweep and op_set cannot drift apart unseen
    tokens = _bench_tokens()
    assert parse_ops(";".join(tokens["ABELIAN_TOKENS"])) == op_set("abelian")
    assert parse_ops(";".join(tokens["ISING_TOKENS"])) == op_set("ising")


# (text, message): a token outside the grammar that BraidOp.token writes, or one naming no op
BAD_TOKENS = [
    ("xAB:split", "unknown op token 'xAB:split'"),
    ("xAB:", "unknown op token 'xAB:'"),
    ("xab", "unknown op token 'xab'"),
    ("xABC", "unknown op token 'xABC'"),
    ("cAB:eps", "only an exchange takes a channel mode"),
    ("t3:1", "only an exchange takes a channel mode"),
    ("t3AB", "the tripartite braid takes no parties"),
    ("xAC:1", r"exchange requires adjacent parties, got \(0, 2\)"),
    ("cDD", "cannot circle a party around itself"),
]
test_a_token_outside_the_grammar_or_no_op_is_refused = refusals(*(
    refuse(BraidError, message, parse_ops, text, id=f"{text}-{message}") for text, message in BAD_TOKENS
))
