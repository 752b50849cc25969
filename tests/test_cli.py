import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anyonmask import __version__, cli
from anyonmask.cli import build_parser, main, parse_complex, parse_model, render_text, resolve_scheme
from anyonmask.latin import cyclic_triple, triple_to_text
from anyonmask.masker import DEFAULT_SEED, default_triple_name, random_unit_coeffs
from anyonmask.teleport import run_teleport
from test_refusals import ISING, check, refusals, refuse, refuse_argv, whole

SRC = str(Path(__file__).resolve().parents[1] / "src")


# int() and float() take other scripts' digits and grouping underscores
NON_ASCII_NUMBERS = [
    ("verify", "--trials", "1_0"),
    ("verify", "--trials", "2", "--seed", "\u0663"),
    ("braid", "--ops", "xAB", "--seed", "\uff13"),
    ("verify", "--tol", "\uff11e-12"),
    ("teleport", "--input", "1,0,0", "--tol", "1e-1_2"),
    ("mols", "--dim", "\u0663"),
]
OVERFLOW = "1" * 400


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-0.5", -0.5 + 0j),
            (".25", 0.25 + 0j),
            ("0.8i", 0.8j),
            ("-i", -1j),
            ("i", 1j),
            ("1+2i", 1 + 2j),
            ("0.6-0.8i", 0.6 - 0.8j),
            ("2+i", 2 + 1j),
            ("1e-05", 1e-05 + 0j),
            ("-2.5E+3", -2500 + 0j),
            ("1.e2-3e-1i", 100 - 0.3j),
            (".5e1+i", 5 + 1j),
            ("2e-3i", 0.002j),
            ("1e+5i", 100000j),
        ],
    )
    def test_valid_forms(self, text, value):
        assert parse_complex(text) == value

    @pytest.mark.parametrize("x", [1e-05, -3.5e-300, 1.7976931348623157e308, 5e-324, 0.1])
    def test_a_printed_float_parses_back(self, x):
        assert parse_complex(repr(x)) == x
        assert parse_complex(f"{x!r}{-x:+}i") == complex(x, -x)

    test_invalid_forms = refusals(*(
        refuse(ValueError, "complex literal", parse_complex, text, id=text)
        for text in ["", "one", "1+2j", "i2", "1 + 2i", "--3", "nan", "inf", "-inf", "infinity",
                     "nani", "1+infi", "1e", "e5", "1e5.0", "1e-5e3", "1e+i"]
    ))
    # \d and \s also take the digits and spaces of other scripts, and float() reads them
    test_only_ascii_digits_and_spaces_parse = refusals(*(
        refuse(ValueError, "cannot parse complex literal", parse_complex, text, id=text)
        for text in ["\u0661", "\u0661.\u0665", "0.5+\u0663i", "\uff11", "1\u2003", "\u00a01", "\U0001d7d9e5"]
    ))
    # float() turns each of these into inf, which a teleport would normalize into NaN
    test_a_part_too_large_for_a_float_is_refused = refusals(*(
        refuse(ValueError, "too large for a float", parse_complex, text, id=text)
        for text in ["1e400", "-1e400i", "9" * 400, "1+1e309i"]
    ))


class TestSelectors:
    def test_models(self):
        assert parse_model("abelian").name == "abelian-c0"
        assert parse_model("ising").name == "ising-c1"
        assert parse_model("ising:3").name == "ising-c3"

    def test_default_schemes(self):
        for selector, d in (("abelian", 4), ("ising", 3)):
            model = parse_model(selector)
            assert resolve_scheme(model, default_triple_name(model)).d == d

    def test_scheme_file(self, tmp_path):
        model = parse_model("ising")
        path = tmp_path / "triple.txt"
        path.write_text(triple_to_text(cyclic_triple(3), model.alphabet))
        scheme = resolve_scheme(model, str(path))
        assert scheme.triple == cyclic_triple(3)

    test_even_chern_rejected = refusals(refuse(ValueError, "odd", parse_model, "ising:2"))
    test_unknown_model_rejected = refusals(refuse(ValueError, "unknown model", parse_model, "fibonacci"))
    # int() reads "1_5" as 15 and the Arabic-Indic or fullwidth digits as 3 and 1
    test_a_chern_number_not_in_ascii_digits_is_refused = refusals(*(
        row
        for chern in ["x", "1_5", "\u0663", "\uff11", ""]
        for message in [f"bad Chern number in model selector {f'ising:{chern}'!r}"]
        for row in [refuse(ValueError, whole(message), parse_model, f"ising:{chern}", id=chern),
                    refuse_argv(whole(f"error: {message}\n"), "verify", "--model", f"ising:{chern}", "--trials", "1",
                                id=chern)]
    ))
    test_missing_scheme_rejected = refusals(refuse(ValueError, "neither", resolve_scheme, ISING, "no-such-scheme"))
    # `args.scheme or` the default read "" as no --scheme: it ran, and recorded, the default triple
    test_an_empty_scheme_is_refused = refusals(*(
        refuse_argv(whole("error: scheme '' is neither a built-in (standard-d4, cyclic-d3) nor a file\n"),
                    command, "--scheme", "", "--trials", "1", *ops, "--out", "{tmp}/r.json", id=command)
        for command, ops in [("verify", ()), ("braid", ("--ops", "xAB"))]
    ))


class TestVerifyCommand:
    def test_abelian_pass(self, capsys):
        code = main(["verify", "--model", "abelian", "--trials", "20", "--seed", "42"])
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_structured_report_written(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["verify", "--model", "ising", "--trials", "10", "--seed", "1", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "verify"
        assert payload["verdict"] == "pass"
        assert payload["results"]["worst_deviation"] <= 1e-12
        assert payload["version"]

    def test_text_report_written(self, tmp_path):
        out = tmp_path / "report.txt"
        main(
            [
                "verify",
                "--model",
                "ising",
                "--trials",
                "5",
                "--seed",
                "1",
                "--out",
                str(out),
                "--format",
                "text",
            ]
        )
        text = out.read_text()
        assert "verdict: pass" in text
        assert "config.model: ising-c1" in text

    def test_custom_scheme_file(self, tmp_path, capsys):
        model = parse_model("ising")
        path = tmp_path / "triple.txt"
        path.write_text(triple_to_text(cyclic_triple(3), model.alphabet))
        code = main(
            ["verify", "--model", "ising", "--scheme", str(path), "--trials", "5", "--seed", "2"]
        )
        assert code == 0

    def test_determinism_byte_identical(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        argv = ["verify", "--model", "ising", "--trials", "50", "--seed", "7"]
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_env_var_seed_default(self, tmp_path, monkeypatch):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        monkeypatch.setenv("ANYONMASK_SEED", "99")
        main(["verify", "--model", "ising", "--trials", "5", "--out", str(out_a)])
        monkeypatch.delenv("ANYONMASK_SEED")
        main(["verify", "--model", "ising", "--trials", "5", "--seed", "99", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

    test_even_chern_is_usage_error = refusals(refuse_argv("odd", "verify", "--model", "ising:2", "--trials", "1"))
    test_bad_trials_rejected = refusals(refuse_argv(whole("error: --trials must be a positive integer, got 0\n"),
                                                    "verify", "--model", "ising", "--trials", "0"))
    # argparse writes its usage first, and ends stderr with the error line
    test_a_number_not_in_ascii_digits_is_usage_error = refusals(*(
        refuse_argv(re.escape(f"error: argument {argv[-2]}: invalid {kind} value: {argv[-1]!r}\n") + r"\Z", *argv,
                    exits=True, id=repr(list(argv)))
        for argv in NON_ASCII_NUMBERS
        for kind in ["float" if argv[-2] == "--tol" else "int"]
    ))
    # exit 1 means a gated check failed; a report that cannot be written raised FileNotFoundError or
    # IsADirectoryError out of main
    test_unwritable_out_is_usage_error = refusals(
        refuse_argv("^error: ", "verify", "--trials", "10", "--out", "{tmp}/missing/r.json", id="missing-directory"),
        refuse_argv("^error: ", "verify", "--trials", "10", "--out", "{tmp}", id="a-directory"),
    )
    # --tol nan used to fail every trial (exit 1) and --tol inf to pass every one
    test_bad_tol_is_usage_error = refusals(*(
        refuse_argv("--tol must be finite and positive", *command, f"--tol={tol}", id=f"{tol}-{command[0]}")
        for command in [("verify", "--model", "ising", "--trials", "2"),
                        ("braid", "--model", "ising", "--ops", "t3", "--trials", "2"), ("teleport", "--input", "1,0,0")]
        for tol in ["nan", "inf", "-inf", "0", "-1e-12"]
    ))
    # int() reads "1_1" and the two Arabic-Indic ones as 11
    test_a_seed_variable_that_is_no_ascii_integer_is_usage_error = refusals(*(
        refuse_argv(whole(f"error: ANYONMASK_SEED must be an integer, got {raw!r}\n"),
                    "verify", "--model", "ising", "--trials", "2", env=raw, id=raw)
        for raw in ["seven", "1_1", "\u0661\u0661"]
    ))


class TestBraidCommand:
    def test_abelian_exchange(self, capsys):
        code = main(
            ["braid", "--model", "abelian", "--ops", "xBC", "--trials", "20", "--seed", "3"]
        )
        assert code == 0
        assert "pass" in capsys.readouterr().out

    def test_ising_two_stage(self, tmp_path):
        out = tmp_path / "braid.json"
        code = main(
            [
                "braid",
                "--model",
                "ising",
                "--ops",
                "t3;xBC",
                "--trials",
                "20",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["results"]["ops"] == "t3;xBC"
        assert payload["verdict"] == "pass"

    def test_a_resolved_exchange_runs_and_is_recorded(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["braid", "--model", "ising", "--ops", "xAB:eps", "--trials", "5", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["results"]["ops"] == "xAB:eps"
        assert " [xAB:eps]: 5 trials" in capsys.readouterr().out

    def test_summary_names_the_canonical_ops(self, capsys):
        assert main(["braid", "--model", "abelian", "--ops", " xAB ;; cBC ", "--trials", "2"]) == 0
        assert capsys.readouterr().out.startswith("braid abelian-c0 [xAB;cBC]: 2 trials")

    def test_summary_under_an_ascii_stdout(self, tmp_path):
        # the summary echoed --ops as given: with a no-break space in it, an ASCII stdout
        # raised UnicodeEncodeError after the report was written, and the run exited 2
        out = tmp_path / "report.txt"
        argv = ["braid", "--ops", "xAB;\u00a0cBC", "--trials", "2", "--format", "text", "--out", str(out)]
        script = f"import sys; from anyonmask.cli import main; sys.exit(main({argv!r}))"
        env = {key: value for key, value in os.environ.items() if key != "PYTHONIOENCODING"}
        env.update(PYTHONPATH=SRC, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert b" [xAB;cBC]: 2 trials" in proc.stdout
        assert "config.ops: xAB;\u00a0cBC\n" in out.read_bytes().decode("utf-8")

    test_non_adjacent_exchange_rejected = refusals(
        refuse_argv("adjacent", "braid", "--model", "abelian", "--ops", "xAC", "--trials", "5"))
    test_unknown_token_rejected = refusals(refuse_argv(
        "unknown op token 'frobnicate'", "braid", "--model", "abelian", "--ops", "frobnicate", "--trials", "5"))
    test_tripartite_needs_ising = refusals(
        refuse_argv("Ising", "braid", "--model", "abelian", "--ops", "t3", "--trials", "5"))
    test_an_op_string_that_cannot_run_is_usage_error = refusals(*(
        refuse_argv(re.escape(message), "braid", "--model", "ising", "--ops", ops, "--trials", "5",
                    id=f"{ops}-{message}")
        for ops, message in [
            ("xAB:eps;xAB:1", "already fuses in channel 'eps'; cannot resolve to '1'"),
            ("cAB:eps", "only an exchange takes a channel mode"),
            ("xDE", "party indices (3, 4) out of range for 3 registers"),
        ]
    ))


class TestMolsCommand:
    def test_dim_three_prints_pair(self, capsys):
        assert main(["mols", "--dim", "3"]) == 0
        out = capsys.readouterr().out
        blocks = [b for b in out.split("\n\n") if b.strip()]
        assert len(blocks) == 2

    def test_dim_five_prints_the_pinned_pair(self, capsys):
        assert main(["mols", "--dim", "5"]) == 0
        assert capsys.readouterr().out == (
            "0 1 2 3 4\n1 2 3 4 0\n2 3 4 0 1\n3 4 0 1 2\n4 0 1 2 3\n"
            "\n"
            "0 1 2 3 4\n2 3 4 0 1\n4 0 1 2 3\n1 2 3 4 0\n3 4 0 1 2\n"
        )

    def test_dim_two_prints_none(self, capsys):
        assert main(["mols", "--dim", "2"]) == 0
        assert capsys.readouterr().out.strip() == "none"

    test_dim_nine_bound_error = refusals(refuse_argv("bounded", "mols", "--dim", "9"))


class TestTeleportCommand:
    def test_basis_input(self, capsys):
        code = main(["teleport", "--input", "1,0,0"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("probability 0.333333333333") == 3
        assert "pass" in out

    def test_phased_input_report(self, tmp_path):
        out = tmp_path / "tp.json"
        code = main(["teleport", "--input", "0.6,0.8i,0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        for outcome in payload["results"]["outcomes"]:
            assert abs(outcome["fidelity"] - 1.0) <= 1e-12

    def test_non_unit_input_normalized_with_warning(self, capsys):
        code = main(["teleport", "--input", "1,1,0"])
        assert code == 0
        assert "normalizing" in capsys.readouterr().err

    def test_exponent_input(self, capsys):
        # 1e-05 is how Python prints that float; it used to exit 2
        assert main(["teleport", "--input=1e-05,1,0"]) == 0
        assert "normalizing" in capsys.readouterr().err

    def test_a_text_report_holds_every_number_of_a_random_input(self, tmp_path):
        # seeded random_unit_coeffs draws, written so that each part parses back to the same float
        rng = np.random.default_rng(DEFAULT_SEED)
        for _ in range(2):
            coeffs = random_unit_coeffs(3, rng)
            text = ",".join(f"{z.real}{z.imag:+}i" for z in coeffs)
            out = tmp_path / "tp.txt"
            assert main(["teleport", "--input", text, "--format", "text", "--out", str(out)]) == 0
            report = dict(line.split(": ", 1) for line in out.read_text().splitlines())
            run = run_teleport(coeffs)
            numbers = {f"results.outcomes.{i}.{name}": getattr(outcome, name)
                       for i, outcome in enumerate(run.outcomes) for name in ("probability", "fidelity")}
            numbers |= {f"results.alice_marginal_deviations.{i}": dev
                        for i, dev in enumerate(run.alice_marginal_deviations)}
            numbers["results.held_marginal_deviation_info"] = run.held_marginal_deviation
            assert {key: float(report[key]) for key in numbers} == numbers
            assert (report["results.verdict"], report["verdict"]) == ("pass", "pass")

    test_arity_error = refusals(refuse_argv("3 coefficients", "teleport", "--input", "1,1"))
    test_zero_input_is_usage_error = refusals(
        refuse_argv(whole("error: teleport input must be a nonzero vector\n"), "teleport", "--input", "0,0,0"))
    test_bad_literal_error = refusals(refuse_argv("complex literal", "teleport", "--input", "1,zap,0"))
    test_a_non_ascii_digit_is_usage_error = refusals(
        refuse_argv(whole("error: cannot parse complex literal '\u0661'\n"),
                    "teleport", "--input=\u0661,0,0", "--format", "text", "--out", "{tmp}/tp.txt"))
    # the token parsed to inf, was "normalized" into NaN with a numpy RuntimeWarning, and the error named
    # NaN coefficients nobody typed
    test_overflowing_literal_is_usage_error = refusals(
        refuse_argv(whole(f"error: complex literal {OVERFLOW!r} is too large for a float\n"),
                    "teleport", f"--input={OVERFLOW},0,0"))
    test_norm_out_of_float_range_is_usage_error = refusals(*(
        refuse_argv(whole(f"error: teleport input norm^2 {way} a float; scale the coefficients\n"),
                    "teleport", f"--input={text}", id=f"{text}-{way}")
        for text, way in [("1e200,1e200i,0", "overflows"), ("1e-200,0,0", "underflows")]
    ))


class TestSharedParser:
    """In-process ``main`` callers share one parser, built on the first call."""

    def test_main_builds_the_parser_once(self, tmp_path, monkeypatch, capsys):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        cli._shared_parser.cache_clear()
        try:
            for argv in (["mols", "--dim", "3"], ["mols", "--dim", "2"], ["teleport", "--input", "1,0,0"]):
                assert main(argv) == 0
            capsys.readouterr()
            check(refuse_argv("--dim", "mols", exits=True), tmp_path, monkeypatch, capsys)
        finally:
            cli._shared_parser.cache_clear()
        assert len(built) == 1

    def test_a_bad_argv_then_a_good_one(self, tmp_path, monkeypatch, capsys):
        # --ops is required
        check(refuse_argv("--ops", "braid", "--model", "ising", "--trials", "5", exits=True),
              tmp_path, monkeypatch, capsys)
        check(refuse_argv("'many'", "verify", "--trials", "many", exits=True), tmp_path, monkeypatch, capsys)
        assert main(["braid", "--model", "ising", "--ops", "t3", "--trials", "5", "--seed", "1"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_seed_variable_is_read_on_every_call(self, tmp_path, monkeypatch):
        argv = ["verify", "--model", "ising", "--trials", "5", "--out"]
        for seed in ("3", "4"):
            monkeypatch.setenv("ANYONMASK_SEED", seed)
            assert main(argv + [str(tmp_path / f"env-{seed}.json")]) == 0
        monkeypatch.delenv("ANYONMASK_SEED")
        assert main(argv + [str(tmp_path / "default.json")]) == 0
        seeds = [json.loads((tmp_path / f"{name}.json").read_text())["config"]["seed"]
                 for name in ("env-3", "env-4", "default")]
        assert seeds == [3, 4, 7]

    def test_a_repeated_command_writes_the_same_bytes(self, tmp_path, capsys):
        argv = ["braid", "--model", "abelian", "--ops", "cAB;xBC", "--trials", "20", "--seed", "5", "--out"]
        assert main(argv + [str(tmp_path / "first.json")]) == 0
        first_out = capsys.readouterr().out
        assert main(["teleport", "--input", "0.6,0.8i,0", "--out", str(tmp_path / "other.json")]) == 0
        assert main(["mols", "--dim", "4"]) == 0
        capsys.readouterr()
        assert main(argv + [str(tmp_path / "again.json")]) == 0
        assert capsys.readouterr().out == first_out
        assert (tmp_path / "again.json").read_bytes() == (tmp_path / "first.json").read_bytes()


class TestReportEncoding:
    """Reports and scheme files are UTF-8 whatever the locale: an --ops or --scheme argument can hold any character."""

    @staticmethod
    def run_under_an_ascii_locale(argv: list[str]) -> subprocess.CompletedProcess:
        """``main(argv)`` in a process whose locale encodes files as ASCII; skipped where there is none."""
        # the argv is written in the script, so it reaches main as text whatever the locale decodes;
        # stdout is UTF-8, as the summary line echoes the ops, so only the files see the locale
        script = f"import sys; from anyonmask.cli import main; sys.exit(main({argv!r}))"
        env = {
            **os.environ,
            "PYTHONPATH": SRC,
            "LC_ALL": "C",
            "PYTHONCOERCECLOCALE": "0",
            "PYTHONUTF8": "0",
            "PYTHONIOENCODING": "utf-8",
        }
        probe = subprocess.run(
            [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        if probe.stdout.strip().lower() in ("utf-8", "utf8"):
            pytest.skip("this platform writes files as UTF-8 even in the C locale")
        return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)

    def test_text_report_under_an_ascii_locale(self, tmp_path):
        out = tmp_path / "report.txt"
        argv = ["braid", "--ops", "xAB;\u00a0cBC", "--trials", "2", "--format", "text", "--out", str(out)]
        proc = self.run_under_an_ascii_locale(argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "config.ops: xAB;\u00a0cBC\n" in out.read_bytes().decode("utf-8")

    def test_a_scheme_file_is_read_as_utf8_under_an_ascii_locale(self, tmp_path):
        # it was read in the locale's encoding: one no-break space in it exited 2 as "'ascii' codec can't decode"
        scheme = tmp_path / "triple.txt"
        text = triple_to_text(cyclic_triple(3), ("1", "eps", "sigma")).replace(" ", "\u00a0", 1)
        scheme.write_text(text, encoding="utf-8")
        proc = self.run_under_an_ascii_locale(["verify", "--model", "ising", "--scheme", str(scheme), "--trials", "2"])
        assert (proc.returncode, proc.stderr) == (0, "")
        assert "verify ising-c1: 2 trials" in proc.stdout

    def test_a_non_ascii_scheme_path_reaches_the_text_report(self, tmp_path):
        scheme = tmp_path / "sch\u00e9ma.txt"
        scheme.write_text(triple_to_text(cyclic_triple(3), ("1", "eps", "sigma")), encoding="utf-8")
        out = tmp_path / "report.txt"
        argv = ["verify", "--model", "ising", "--scheme", str(scheme), "--trials", "2"]
        assert main(argv + ["--format", "text", "--out", str(out)]) == 0
        assert f"config.scheme: {scheme}\n" in out.read_bytes().decode("utf-8")


class TestEntryPoint:
    """``python -m anyonmask`` in its own process, as users run it."""

    @staticmethod
    def run(*argv: str) -> subprocess.CompletedProcess:
        env = {**os.environ, "PYTHONPATH": SRC}
        return subprocess.run(
            [sys.executable, "-m", "anyonmask", *argv], env=env, capture_output=True, text=True, timeout=120
        )

    def test_version(self):
        proc = self.run("--version")
        assert proc.returncode == 0
        assert proc.stdout == f"anyonmask {__version__}\n"

    def test_mols_prints_what_main_prints(self, capsys):
        proc = self.run("mols", "--dim", "3")
        assert main(["mols", "--dim", "3"]) == 0
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == capsys.readouterr().out

    def test_bad_trials_exit_2(self):
        proc = self.run("verify", "--trials", "0")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ")

    def test_unknown_subcommand_exit_2(self):
        proc = self.run("unmask")
        assert proc.returncode == 2
        assert "invalid choice: 'unmask'" in proc.stderr


class TestRenderText:
    def test_nested_payload_flattens(self):
        text = render_text({"a": {"b": 1}, "c": [2, 3], "d": "x"})
        assert "a.b: 1" in text
        assert "c.0: 2" in text
        assert "d: x" in text
