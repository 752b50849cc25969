"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest -q bench/tests
"""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import anyonmask  # noqa: E402
import workloads as w  # noqa: E402
from anyonmask import braid, latin, masker  # noqa: E402
from stats import percentile, quartile_spread, tail, tail_percentile, unit_metrics, windows  # noqa: E402
from tracer import Tracer, layer_metrics, self_times  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    # a [0, 100] holds b [10, 30] and c [40, 70]; c holds d [50, 60].
    start = np.array([0, 10, 40, 50])
    end = np.array([100, 30, 70, 60])
    parent = np.array([-1, 0, 0, 2])
    assert self_times(start, end, parent).tolist() == [50, 20, 20, 10]


def test_self_times_of_a_tree_add_up_to_the_root():
    start = np.array([0, 5, 6, 20, 21, 22])
    end = np.array([50, 15, 9, 40, 30, 25])
    parent = np.array([-1, 0, 1, 0, 3, 4])
    own = self_times(start, end, parent)
    assert own.tolist() == [20, 7, 3, 11, 6, 3]
    assert own.sum() == end[0] - start[0]


def test_wrapped_calls_nest_and_count_terms():
    tracer = Tracer()
    inner = tracer.wrap(lambda state: state + [0], "qstate.inner", size_in=lambda a, k: len(a[0]), size_out=len)
    outer = tracer.wrap(lambda state: inner(inner(state)), "braid.outer")
    assert outer([1, 2]) == [1, 2, 0, 0]
    spans = tracer.arrays()
    names = [tracer.names[i] for i in spans["name_id"]]
    assert names == ["braid.outer", "qstate.inner", "qstate.inner"]
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert spans["terms_in"].tolist() == [-1, 2, 3]
    assert spans["terms_out"].tolist() == [-1, 3, 4]
    own = self_times(spans["start_ns"], spans["end_ns"], spans["parent"])
    assert (own >= 0).all()
    assert own.sum() == spans["end_ns"][0] - spans["start_ns"][0]


def test_tracer_patches_names_imported_by_other_modules_and_restores_them():
    tracer = Tracer()
    original = masker.encode
    assert braid.encode is original
    with tracer.active():
        assert braid.encode is masker.encode is anyonmask.encode
        assert braid.encode is not original
        braid.verify_invariance(masker.ising_cyclic_scheme(), braid.parse_ops("t3"), trials=2, seed=1)
    assert braid.encode is original and masker.encode is original
    metrics = layer_metrics(tracer, traced_wall_ns=10**9)
    assert metrics["braid.verify_invariance.calls"] == 1
    assert metrics["masker.encode.calls"] == 3  # two trials and the worst trial re-run
    assert metrics["braid.tripartite_braid.calls"] == 3
    assert metrics["braid.exchange.calls"] == 0 and metrics["braid.exchange.self_us"] is None
    assert metrics["braid.split_ratio"] >= 1.0


# -- tail percentile rule ----------------------------------------------------

@pytest.mark.parametrize(
    "n, expected",
    [(19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_reports_value_and_samples_beyond():
    p, value, beyond = tail([float(x) for x in range(1, 101)])
    assert p == 90.0
    assert value == pytest.approx(90.1)
    assert beyond == 10


def test_tail_refuses_too_few_samples():
    with pytest.raises(ValueError):
        tail([1.0] * 19)


def test_windows_cover_the_run_in_whole_cycles():
    assert windows(10, 3) == [(0, 3), (3, 7), (7, 10)]
    assert windows(28, 10, align=14) == [(0, 14), (14, 28)]
    assert windows(200, 2, align=2) == [(0, 100), (100, 200)]
    assert windows(5, 0) == [(0, 5)]
    for a, b in windows(206, 10, align=2):
        assert (b - a) % 2 == 0 and b - a >= 20


def test_unit_metrics_whole_run_throughput_and_median_tail_window():
    # 300 units of 0.1 s; thirty of them, inside the first tail window, take 1 s.
    units = [w.Unit("a", 1.0 if 60 <= i < 90 else 0.1, 2, None) for i in range(300)]
    metrics, facts = unit_metrics(units, align=1, split_median=False)
    assert metrics["trials_per_s"] == pytest.approx(600 / (270 * 0.1 + 30 * 1.0))
    assert metrics["unit_p50_ms"] == pytest.approx(100.0)
    assert metrics["unit_tail_ms"] == pytest.approx(100.0)
    assert facts["tail_percentile"] == 90.0 and facts["tail_windows"] == 3 and facts["tail_beyond_min"] == 0


def test_unit_metrics_average_the_two_campaign_medians():
    units = [w.Unit(("abelian", "ising")[i % 2], (0.15, 0.11)[i % 2], 1000, None) for i in range(100)]
    metrics, facts = unit_metrics(units, align=2, split_median=True)
    assert metrics["unit_p50_ms"] == pytest.approx(130.0)
    assert metrics["trials_per_s"] == pytest.approx(2000 / 0.26)
    assert facts["tail_windows"] == 1


def test_percentile_and_spread():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([0.0, 10.0], 25) == 2.5
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


# -- output checks -----------------------------------------------------------

def test_campaign_check_trips_on_doctored_results():
    result = masker.run_masking_campaign(masker.ising_cyclic_scheme(), trials=5, seed=3)
    assert w.check_campaign(result) is None
    assert w.check_campaign(dataclasses.replace(result, verdict=False)) is not None
    assert w.check_campaign(dataclasses.replace(result, failed_trials=1)) is not None
    assert w.check_campaign(dataclasses.replace(result, worst_deviation=2e-12)) is not None
    assert w.check_campaign(dataclasses.replace(result, worst_deviation=math.nan)) is not None


def test_sweep_check_trips_on_doctored_reports():
    report = braid.verify_invariance(masker.abelian_standard_scheme(), braid.parse_ops("xAB"), trials=3, seed=2)
    assert w.check_sweep(report) is None
    assert w.check_sweep(dataclasses.replace(report, verdict=False)) is not None
    assert w.check_sweep(dataclasses.replace(report, worst_deviation=3e-12)) is not None
    assert w.check_sweep(dataclasses.replace(report, unitarity_defect=1e-9)) is not None


def _output(kind, report=None, stdout="", returncode=0, argv=("verify",)):
    command = w.Command(f"{kind}-x", kind, argv, 0, report is not None)
    return w.CliOutput(command, returncode, report, stdout)


def test_cli_checks_trip_on_doctored_reports():
    good = b'{"verdict": "pass", "results": {"outcomes": [{"probability": 0.3333333333333333, "fidelity": 1.0}]}}'
    assert w.cli_problem(_output("teleport", good)) is None
    assert w.cli_problem(_output("teleport", good.replace(b"0.3333333333333333", b"0.34"))) is not None
    assert w.cli_problem(_output("teleport", good.replace(b'"fidelity": 1.0', b'"fidelity": 0.9'))) is not None
    assert w.cli_problem(_output("teleport", good, returncode=2)) is not None
    verify = b'{"verdict": "pass", "results": {"failed_trials": 0, "worst_deviation": 1e-16}}'
    assert w.cli_problem(_output("verify", verify)) is None
    assert w.cli_problem(_output("verify", verify.replace(b"1e-16", b"1e-11"))) is not None
    assert w.cli_problem(_output("verify", verify.replace(b'"pass"', b'"fail"'))) is not None
    assert w.cli_problem(_output("verify", b"not json")) is not None


def test_mols_check_is_independent_of_the_library():
    first, second = latin.find_mols_pair(5)
    alphabet = tuple(str(x) for x in range(5))
    text = latin.square_to_text(first, alphabet) + "\n" + latin.square_to_text(second, alphabet)
    assert w.mols_problem(text, 5) is None
    same = latin.square_to_text(first, alphabet) + "\n" + latin.square_to_text(first, alphabet)
    assert "orthogonal" in w.mols_problem(same, 5)
    broken = text.replace("0 1 2 3 4", "0 0 2 3 4", 1)
    assert "Latin" in w.mols_problem(broken, 5)
    assert w.mols_problem("none\n", 2) is not None


def test_determinism_check_names_differing_outputs():
    a, b = _output("verify", b"{}"), _output("verify", b"{ }")
    assert w.determinism_problems([a, a])[0][1] is None
    assert w.determinism_problems([a, b])[0][1] is not None


def test_negative_controls_pass_at_this_commit():
    controls = w.negative_controls()
    assert len(controls) == 4
    assert [problem for _, problem in controls] == [None] * 4


def test_cli_mix_is_seeded():
    assert w.cli_commands(5) == w.cli_commands(5)
    assert w.cli_commands(5) != w.cli_commands(6)
    kinds = [c.kind for c in w.cli_commands(5)]
    assert kinds.count("verify") == 2 and kinds.count("mols") == 3 and kinds.count("teleport") == 3


def test_sweep_matches_the_acceptance_op_set():
    ctx = w.setup("braid_sweep", 40_000)
    models = [model for model, *_ in ctx.sequences]
    assert models.count("abelian") == 155 and models.count("ising") == 258
    first_ising = models.index("ising")
    assert ctx.sequences[first_ising][3] == 40_000
    assert ctx.sequences[-1][1] == "t3;t3;t3"
