"""Layer spans recorded from outside the program.

The tracer wraps public functions of the ``anyonmask`` modules at every
module attribute that holds them, so a caller that imported a function by
name (``braid`` imports ``encode`` and ``norm`` that way) is traced too.
One span is one call: its name, the span that caused it, its start and
end in ``perf_counter_ns``, and, for functions that take or return a
state, the number of terms in and out.  Spans stay
in memory in flat arrays and are written out when the run ends.

Hot per-term helpers (``fuse``, ``r_angle``, ``phase_from_eighths``) are
not wrapped: a span per term would cost more than the work it measures.
Their time shows as self time of the braid op that calls them.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Optional

import numpy as np


def _len_arg(index: int) -> Callable:
    return lambda args, kwargs: len(args[index])


def _mols_order(args, kwargs) -> str:
    return f"d{args[0]}"


def _subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else "none"


# (module, function, terms in, terms out, per-call name suffix)
TARGETS = (
    ("anyons", "abelian_c0", None, None, None),
    ("anyons", "ising_like", None, None, None),
    ("anyons", "validate_model", None, None, None),
    ("latin", "validate_triple", None, None, None),
    ("latin", "find_mols_pair", None, None, _mols_order),
    ("qstate", "partial_trace", _len_arg(0), None, None),
    ("qstate", "hs_distance", None, None, None),
    ("qstate", "norm", None, None, None),
    ("masker", "random_unit_coeffs", None, None, None),
    ("masker", "encode", None, len, None),
    ("masker", "verify_masking", _len_arg(0), None, None),
    ("masker", "run_masking_campaign", None, None, None),
    ("braid", "parse_ops", None, None, None),
    ("braid", "exchange", _len_arg(1), len, None),
    ("braid", "circle", _len_arg(1), len, None),
    ("braid", "tripartite_braid", _len_arg(1), len, None),
    ("braid", "apply_ops", _len_arg(1), len, None),
    ("braid", "verify_invariance", None, None, None),
    ("teleport", "build_joint", None, len, None),
    ("teleport", "permutation_encode", _len_arg(0), len, None),
    ("teleport", "alice_measure", _len_arg(0), None, None),
    ("teleport", "correct", _len_arg(0), len, None),
    ("teleport", "run_teleport", None, None, None),
    ("cli", "main", None, None, _subcommand),
)

MODULES = ("anyons", "latin", "qstate", "masker", "braid", "teleport", "cli")
BRAID_OPS = ("exchange", "circle", "tripartite_braid")
TELEPORT_STAGES = ("run_teleport", "build_joint", "permutation_encode", "alice_measure", "correct")
SUBCOMMANDS = ("verify", "braid", "mols", "teleport")


class Tracer:
    """Records one span per call of a wrapped function while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.terms_in = array("q")
        self.terms_out = array("q")
        self._stack: list[int] = []
        self._patches: Optional[list[tuple]] = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, size_in=None, size_out=None, suffix=None) -> Callable:
        """A function that calls ``fn`` and records the call as a span."""
        fixed = self._id(name)
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(fixed if suffix is None else self._id(f"{name}.{suffix(args, kwargs)}"))
            self.parent.append(stack[-1] if stack else -1)
            self.terms_in.append(size_in(args, kwargs) if size_in is not None else -1)
            self.terms_out.append(-1)
            self.end.append(0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if size_out is not None:
                self.terms_out[idx] = size_out(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _plan(self) -> list[tuple]:
        """Every (module, attribute, original, wrapper) to patch, found by identity."""
        for mod in MODULES:
            importlib.import_module(f"anyonmask.{mod}")
        modules = [m for n, m in sys.modules.items() if n == "anyonmask" or n.startswith("anyonmask.")]
        patches = []
        for mod, fn_name, size_in, size_out, suffix in TARGETS:
            original = getattr(sys.modules[f"anyonmask.{mod}"], fn_name)
            wrapper = self.wrap(original, f"{mod}.{fn_name}", size_in, size_out, suffix)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, attr, original, wrapper))
        return patches

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block."""
        if self._patches is None:
            self._patches = self._plan()
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        fields = {
            "name_id": self.name_id,
            "parent": self.parent,
            "start_ns": self.start,
            "end_ns": self.end,
            "terms_in": self.terms_in,
            "terms_out": self.terms_out,
        }
        return {key: np.frombuffer(values, dtype=np.int64).copy() for key, values in fields.items()}

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the time they cover is the sum of their durations.
    """
    duration = (end - start).astype(np.int64)
    covered = np.zeros(len(duration), dtype=np.int64)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


def layer_metrics(tracer: Tracer, traced_wall_ns: int) -> dict[str, Optional[float]]:
    """The per-layer metrics of one traced run; None where the layer was never called.

    ``*.self_us`` / ``*.self_ms`` are medians of per-call self time,
    ``*_ms`` without ``self`` are medians of whole-call duration, ``*.calls``
    and ``*.terms_*`` are exact counts, and ``<module>.self_share`` is the
    module's total self time over the traced wall time of the work.
    """
    spans = tracer.arrays()
    own = self_times(spans["start_ns"], spans["end_ns"], spans["parent"])
    duration = spans["end_ns"] - spans["start_ns"]
    ids = spans["name_id"]
    by_name = {name: ids == i for i, name in enumerate(tracer.names)}
    empty = np.zeros(len(ids), dtype=bool)

    def select(*names: str) -> np.ndarray:
        mask = empty.copy()
        for name in names:
            mask |= by_name.get(name, empty)
        return mask

    def median(values: np.ndarray, mask: np.ndarray, scale: float) -> Optional[float]:
        picked = values[mask]
        return float(np.median(picked)) / scale if len(picked) else None

    def calls(name: str) -> int:
        return int(select(name).sum())

    def terms(name: str, field: str) -> int:
        return int(spans[field][select(name)].sum())

    m: dict[str, Optional[float]] = {
        "anyons.build_ms": median(duration, select("anyons.abelian_c0", "anyons.ising_like"), 1e6),
        "anyons.validate_ms": median(duration, select("anyons.validate_model"), 1e6),
        "latin.validate_triple_ms": median(duration, select("latin.validate_triple"), 1e6),
        "latin.find_mols_pair.calls": sum(calls(f"latin.find_mols_pair.d{d}") for d in (3, 4, 5)),
    }
    for d in (3, 4, 5):
        m[f"latin.mols_ms.d{d}"] = median(duration, select(f"latin.find_mols_pair.d{d}"), 1e6)
    for fn in ("encode", "verify_masking"):
        m[f"masker.{fn}.calls"] = calls(f"masker.{fn}")
        m[f"masker.{fn}.self_us"] = median(own, select(f"masker.{fn}"), 1e3)
    m["masker.random_unit_coeffs.self_us"] = median(own, select("masker.random_unit_coeffs"), 1e3)
    m["masker.run_masking_campaign.calls"] = calls("masker.run_masking_campaign")
    m["masker.run_masking_campaign.self_ms"] = median(own, select("masker.run_masking_campaign"), 1e6)
    m["qstate.partial_trace.calls"] = calls("qstate.partial_trace")
    m["qstate.partial_trace.self_us"] = median(own, select("qstate.partial_trace"), 1e3)
    m["qstate.partial_trace.terms_in"] = terms("qstate.partial_trace", "terms_in")
    m["qstate.hs_distance.self_us"] = median(own, select("qstate.hs_distance"), 1e3)
    m["qstate.norm.calls"] = calls("qstate.norm")
    m["qstate.norm.self_us"] = median(own, select("qstate.norm"), 1e3)
    total_in = total_out = 0
    for op in BRAID_OPS:
        name = f"braid.{op}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_us"] = median(own, select(name), 1e3)
        m[f"{name}.terms_in"] = terms(name, "terms_in")
        m[f"{name}.terms_out"] = terms(name, "terms_out")
        total_in += m[f"{name}.terms_in"]
        total_out += m[f"{name}.terms_out"]
    m["braid.split_ratio"] = total_out / total_in if total_in else 0.0
    m["braid.apply_ops.self_us"] = median(own, select("braid.apply_ops"), 1e3)
    m["braid.verify_invariance.calls"] = calls("braid.verify_invariance")
    m["braid.verify_invariance.self_ms"] = median(own, select("braid.verify_invariance"), 1e6)
    m["braid.parse_ops.calls"] = calls("braid.parse_ops")
    m["braid.parse_ops.self_us"] = median(own, select("braid.parse_ops"), 1e3)
    m["teleport.run_teleport.calls"] = calls("teleport.run_teleport")
    for stage in TELEPORT_STAGES:
        m[f"teleport.{stage}.self_us"] = median(own, select(f"teleport.{stage}"), 1e3)
    main_names = [f"cli.main.{sub}" for sub in SUBCOMMANDS]
    m["cli.main.calls"] = int(select(*main_names).sum())
    for sub, name in zip(SUBCOMMANDS, main_names):
        m[f"cli.main.self_ms.{sub}"] = median(own, select(name), 1e6)
    module_of = np.array([MODULES.index(name.split(".")[0]) for name in tracer.names] or [0])
    for i, mod in enumerate(MODULES):
        mask = module_of[ids] == i
        m[f"{mod}.self_share"] = float(own[mask].sum()) / traced_wall_ns if traced_wall_ns else 0.0
    return m


def metric_unit(name: str) -> str:
    """The unit a layer metric name implies."""
    if name.endswith((".calls", ".terms_in", ".terms_out")):
        return "count"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_share", "overhead")):
        return "ratio"
    if "_ms" in name:
        return "ms"
    if "_us" in name:
        return "us"
    raise ValueError(f"no unit known for metric {name!r}")
