"""The names other code depends on stay where it looks for them.

``anyonmask.__all__`` is the package's public surface, and the benchmark's
tracer (``bench/tracer.py``) wraps functions by module and name; a
deletion or rename must show up here rather than as a broken import or a
silently empty trace.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import anyonmask
from anyonmask.braid import parse_ops, verify_invariance
from anyonmask.masker import abelian_standard_scheme, ising_cyclic_scheme, run_masking_campaign

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = (
    "ABELIAN_ALPHABET", "AnyonModel", "BasisKet", "BraidOp", "DensityMatrix", "E", "EPS",
    "ISING_ALPHABET", "M", "MaskingScheme", "SIGMA", "SchemeTriple", "Square", "StateVector",
    "TeleportRun", "VAC", "__version__", "abelian_c0", "abelian_standard_scheme",
    "alice_measure", "apply_ops", "are_orthogonal", "basis_state", "bipartite_control",
    "build_channel", "build_joint", "circle", "correct", "cyclic_square", "cyclic_triple",
    "encode", "exchange", "find_mols_pair", "fuse", "hs_distance", "inner",
    "is_latin", "ising_cyclic_scheme", "ising_like", "monodromy_angle", "norm", "parse_ops",
    "partial_trace", "permutation_encode", "phase_from_eighths", "r_angle",
    "run_masking_campaign", "run_teleport", "standard_squares_d4", "tensor",
    "tripartite_braid", "validate_model", "validate_triple", "verify_invariance",
    "verify_masking",
)


def tracer_targets():
    path = ROOT / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, name) for mod, name, *_ in module.TARGETS]


def test_all_is_pinned():
    assert len(anyonmask.__all__) == len(set(anyonmask.__all__)) == 55
    assert sorted(anyonmask.__all__) == sorted(PUBLIC_NAMES)


def test_public_names_resolve():
    assert [name for name in PUBLIC_NAMES if getattr(anyonmask, name, None) is None] == []


def test_tracer_targets_exist():
    # exchange and norm have no caller inside the package, so only this notices their removal
    targets = tracer_targets()
    assert ("braid", "exchange") in targets and ("qstate", "norm") in targets
    missing = [
        f"{mod}.{name}"
        for mod, name in targets
        if not callable(getattr(importlib.import_module(f"anyonmask.{mod}"), name, None))
    ]
    assert missing == []


def test_every_timed_function_runs_in_a_campaign_and_a_sweep_unit(monkeypatch):
    # bench/run.py --trace 1 exits 2 when a "<module>.<function>.self_us"
    # metric of BENCHMARK.json has no call to time; count the calls here the
    # way the tracer wraps them, at every module attribute that holds them
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    timed = [m["name"].removesuffix(".self_us") for m in metrics if m["name"].endswith(".self_us")]
    assert timed
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "anyonmask"]
    calls = dict.fromkeys(timed, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in timed:
        mod, fn_name = name.split(".")
        original = getattr(importlib.import_module(f"anyonmask.{mod}"), fn_name)
        wrapper = counted(name, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    units = {
        "campaign": lambda: run_masking_campaign(abelian_standard_scheme(), 10, 0),
        "sweep": lambda: verify_invariance(ising_cyclic_scheme(), parse_ops("t3"), trials=10),
    }
    for unit, run in units.items():
        calls.update(dict.fromkeys(timed, 0))
        run()
        assert (unit, [name for name, count in calls.items() if count < 1]) == (unit, [])
