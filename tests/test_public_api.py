"""The names other code depends on stay where it looks for them.

``anyonmask.__all__`` is the package's public surface, and the benchmark's
tracer (``bench/tracer.py``) wraps functions by module and name; a
deletion or rename must show up here rather than as a broken import or a
silently empty trace.
"""

import importlib
import importlib.util
from pathlib import Path

import anyonmask

PUBLIC_NAMES = (
    "ABELIAN_ALPHABET", "AnyonModel", "BasisKet", "BraidOp", "DensityMatrix", "E", "EPS",
    "ISING_ALPHABET", "M", "MaskingScheme", "SIGMA", "SchemeTriple", "Square", "StateVector",
    "TeleportRun", "VAC", "__version__", "abelian_c0", "abelian_standard_scheme",
    "alice_measure", "apply_ops", "are_orthogonal", "basis_state", "bipartite_control",
    "build_channel", "build_joint", "circle", "correct", "cyclic_square", "cyclic_triple",
    "encode", "encode_basis", "exchange", "find_mols_pair", "fuse", "hs_distance", "inner",
    "is_latin", "ising_cyclic_scheme", "ising_like", "monodromy", "norm", "parse_ops",
    "partial_trace", "permutation_encode", "phase_from_eighths", "r_phase",
    "run_masking_campaign", "run_teleport", "scale", "standard_squares_d4", "tensor",
    "tripartite_braid", "validate_model", "validate_triple", "verify_invariance",
    "verify_masking",
)


def tracer_targets():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, *_ in module.TARGETS]


def test_all_is_pinned():
    assert len(anyonmask.__all__) == len(set(anyonmask.__all__)) == 57
    assert sorted(anyonmask.__all__) == sorted(PUBLIC_NAMES)


def test_public_names_resolve():
    assert [name for name in PUBLIC_NAMES if getattr(anyonmask, name, None) is None] == []


def test_tracer_targets_exist():
    targets = tracer_targets()
    assert targets
    missing = [
        f"{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"anyonmask.{mod}"), name, None))
    ]
    assert missing == []
