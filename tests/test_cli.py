"""Command-line front end: exit codes, report stability, formats."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from mvdl import algebra, cli, harness, reduction
from mvdl.cli import main
from mvdl.jsonio import algebra_to_json, dumps, model_to_json
from mvdl.algebra import build_builtin
from mvdl.presets import make_preset
from mvdl.semantics import Model


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_validate_builtin_passes(self, capsys):
        code, out, _ = run(capsys, "validate-algebra", "--builtin", "L3")
        assert code == 0
        assert "residuation" in out

    def test_validate_broken_algebra_fails(self, capsys, tmp_path):
        data = algebra_to_json(build_builtin("boolean"))
        data["tensor"] = [[0, 0], [0, 0]]
        path = tmp_path / "broken.json"
        path.write_text(dumps(data))
        # validate-algebra reports laws instead of raising
        code, out, err = run(capsys, "validate-algebra", "--algebra", str(path))
        assert code == 2  # inline load validates and rejects

    def test_builtin_name_wins_over_a_file_of_that_name(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "L2").write_text("junk")
        code, _, _ = run(capsys, "semiprimal", "--algebra", "L2")
        assert code == 0
        # the file is read when passed as a path
        code, _, err = run(capsys, "semiprimal", "--algebra", "./L2")
        assert code == 2 and "not valid JSON" in err

    def test_entail_countermodel_exits_one(self, capsys):
        code, out, _ = run(
            capsys,
            "entail", "--preset", "pdl-crisp", "--algebra", "B2",
            "--phi", "p -> [a]p", "--max-n", "2", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["status"] == "fails"
        assert payload["counterexample"]["model"]["n"] == 2

    @pytest.mark.parametrize(
        "argv,code",
        [
            # a report far larger than the pipe buffer fails at print
            (["verify-rules", "--preset", "pdl-crisp", "--algebra", "B2", "--n", "1"], 0),
            # a short one is still buffered at print and fails at the flush
            (["reduce", "--preset", "pdl-crisp", "--phi", "<a;b> p"], 0),
            (["semiprimal", "--algebra", "G3"], 1),
            # these also write to stderr
            (["verify-rules", "--preset", "pdl-labelled", "--algebra", "L2", "--n", "2",
              "--budget", "1000"], 3),
            (["reduce", "--preset", "pdl-crisp", "--phi", "<a*> p"], 2),
        ],
    )
    @pytest.mark.parametrize("both", [False, True], ids=["stdout", "stdout-and-stderr"])
    def test_a_closed_pipe_keeps_the_exit_code(self, argv, code, both):
        # the reader is gone before mvdl writes, as after `mvdl ... | head -5`
        # (or `2>&1 | head -5`, with both)
        read, write = os.pipe()
        os.close(read)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        try:
            child = subprocess.run(
                [sys.executable, "-m", "mvdl.cli", *argv, "--format", "json"],
                stdout=write, stderr=write if both else subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write)
        if not both:
            assert "Traceback" not in child.stderr.decode()
            assert (child.stderr == b"") == (code < 2)
        assert child.returncode == code

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "entail", "--no-such-flag")
        assert code == 2

    def test_iteration_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "reduce", "--preset", "pdl-crisp", "--phi", "<a*> p"
        )
        assert code == 2
        assert "iteration" in err

    def test_budget_exit_three(self, capsys):
        code, _, err = run(
            capsys,
            "entail", "--preset", "pdl-labelled", "--algebra", "L2",
            "--phi", "<a;b;c> p -> <a;b;c> p", "--max-n", "2", "--budget", "50",
        )
        assert code == 3
        assert "budget" in err

    def test_rule_budget_counts_coalgebra_tuples(self, capsys):
        # C = 81 coalgebras at two states fit, the C**2 pairs of `;` do not;
        # the rules that fit are still checked and reported
        code, out, err = run(
            capsys,
            "verify-rules", "--preset", "pdl-labelled", "--algebra", "L2",
            "--n", "2", "--budget", "1000", "--format", "json",
        )
        assert code == 3
        assert "6561 coalgebra tuples" in err
        report = json.loads(out)
        over = {key for key, v in report.items() if v["status"] == "budget-exceeded"}
        assert over == {"op + box", "op ; box", "op + dia", "op ; dia"}
        assert all(report[key]["detail"]["count"] == 6561 for key in over)
        assert {key: report[key]["status"] for key in report.keys() - over} == {
            "op ~ box": "holds", "op ~ dia": "holds", "test t box": "holds", "test t dia": "holds",
        }

    def test_test_safety_budget_counts_squares(self, capsys):
        # 374 maps and target predicates up to three states, over budget 1
        code, out, err = run(
            capsys,
            "check-safety", "--preset", "pdl-crisp", "--algebra", "B2", "--test", "t",
            "--max-n", "3", "--budget", "1",
        )
        assert (code, out) == (3, "")
        assert "374 maps and target predicates" in err

    def test_op_safety_budget_counts_operand_tuples(self, capsys):
        # the 7,614 tuples `;` computes up to n = 2 are counted only where
        # their closed-form lower bound, 432, fits the budget
        for budget, count in (("100", "at least 432"), ("1000", "7614")):
            code, out, err = run(
                capsys,
                "check-safety", "--preset", "pdl-labelled", "--algebra", "L2", "--op", ";",
                "--max-n", "2", "--budget", budget,
            )
            assert (code, out) == (3, "")
            assert f": {count} target operand tuples" in err and "random mode" in err

    def test_game_pointwise_safety_fits_the_default_budget(self, capsys):
        # both operands of `+` are local: 175**2 constant pairs, not C**2
        code, out, _ = run(
            capsys,
            "--format", "json", "check-safety", "--preset", "game", "--algebra", "L2",
            "--op", "+", "--max-n", "2",
        )
        assert code == 0
        assert json.loads(out)["status"] == "holds-up-to-bound"

    def test_game_composition_safety_names_its_local_count(self, capsys):
        # the right operand of `;` is not local: each consistent coalgebra is
        # computed at every fill of the states outside the image of f
        code, out, err = run(
            capsys,
            "check-safety", "--preset", "game", "--algebra", "L2", "--op", ";", "--max-n", "2",
        )
        assert (code, out) == (3, "")
        assert "441650225 target operand tuples" in err

    def test_separation_budget_counts_pairs(self, capsys):
        # 65,536 values at four states fit the budget, their pairs do not
        t0 = time.perf_counter()
        code, out, err = run(capsys, "check-separation", "--preset", "instantial", "--n", "4")
        assert (code, out) == (3, "")
        assert "2147450880 pairs" in err
        assert time.perf_counter() - t0 < 5

    def test_semiprimal_false_exits_one(self, capsys):
        code, out, _ = run(capsys, "semiprimal", "--algebra", "G3")
        assert code == 1
        assert "False" in out


class TestCommands:
    def test_reduce_game(self, capsys):
        code, out, _ = run(
            capsys, "reduce", "--preset", "game", "--algebra", "L2",
            "--phi", "<(a;b)+c> p",
        )
        assert code == 0
        assert out.strip() == "<a> <b> p \\/ <c> p"

    def test_eval_model(self, capsys, tmp_path):
        config = make_preset("pdl-labelled", build_builtin("lukasiewicz", 2))
        model = Model(
            2, config, atoms={"a": ((0, 1), (0, 0))}, valuation={"p": (0, 2)}
        )
        path = tmp_path / "model.json"
        path.write_text(dumps(model_to_json(model)))
        code, out, _ = run(
            capsys, "eval", "--model", str(path), "--phi", "<a> p", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["values"] == [1, 0]
        assert payload["labels"] == ["1/2", "0"]

    def test_verify_rules_small(self, capsys):
        code, out, _ = run(
            capsys,
            "verify-rules", "--preset", "pdl-crisp", "--algebra", "B2", "--n", "1",
        )
        assert code == 0
        assert "holds" in out

    def test_check_safety(self, capsys):
        code, out, _ = run(
            capsys,
            "check-safety", "--preset", "pdl-crisp", "--algebra", "B2",
            "--op", ";", "--max-n", "2",
        )
        assert code == 0
        assert "holds-up-to-bound" in out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--op", "+", "--test", "t"], "argument --test: not allowed with argument --op"),
            ([], "one of the arguments --op --test is required"),
        ],
    )
    def test_check_safety_takes_one_target(self, capsys, flags, message):
        # the target is one operation or one test, never both
        code, out, err = run(
            capsys, "check-safety", "--preset", "pdl-crisp", "--algebra", "B2", *flags
        )
        assert (code, out) == (2, "")
        assert message in err

    def test_check_safety_test_target(self, capsys):
        code, out, _ = run(
            capsys,
            "check-safety", "--preset", "game", "--algebra", "B2",
            "--test", "t", "--max-n", "2",
        )
        assert code == 0
        assert "holds-up-to-bound" in out

    def test_eval_instantial_model(self, capsys, tmp_path):
        config = make_preset("instantial", max_k=1)
        model = Model(
            2,
            config,
            atoms={"a": (frozenset({0b10}), frozenset())},
            valuation={"p": (0, 1), "q": (1, 1)},
        )
        path = tmp_path / "inst.json"
        path.write_text(dumps(model_to_json(model)))
        code, out, _ = run(
            capsys,
            "eval", "--model", str(path),
            "--phi", "<a:inst2>(q, p)", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["values"] == [1, 0]

    def test_check_separation(self, capsys):
        code, out, _ = run(
            capsys,
            "check-separation", "--preset", "pdl-threshold", "--algebra", "L2",
            "--n", "2",
        )
        assert code == 0

    def test_one_step_trials(self, capsys):
        code, out, _ = run(
            capsys,
            "one-step", "--kind", "labelled-diamond", "--algebra", "L2",
            "--n", "2", "--trials", "25",
        )
        assert code == 0
        assert "25 roundtrips" in out

    def test_one_step_h_file(self, capsys, tmp_path):
        L2 = build_builtin("lukasiewicz", 2)
        entries = []
        for r in (1, 2):
            for s in range(4):
                acc = L2.bigjoin(v for x, v in enumerate((1, 2)) if s >> x & 1)
                entries.append([[r, s], 1 if L2.leq(r, acc) else 0])
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(
            capsys,
            "one-step", "--kind", "threshold", "--algebra", "L2", "--n", "2",
            "--h", str(path), "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["alpha"] == [1, 2]

    def test_one_step_corrupted_h_names_axiom(self, capsys, tmp_path):
        entries = [
            [[r, s], 1 if (r == 2 and s & 1) else 0]
            for r in (1, 2)
            for s in range(4)
        ]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, _ = run(
            capsys,
            "one-step", "--kind", "threshold", "--algebra", "L2", "--n", "2",
            "--h", str(path), "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["violation"] == "threshold-monotonicity"

    def test_reports_are_byte_identical(self, capsys):
        argv = [
            "entail", "--preset", "pdl-crisp", "--algebra", "B2",
            "--phi", "p -> [a]p", "--max-n", "2", "--format", "json",
        ]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        # seconds vary; mask the timing field before comparing bytes
        p1, p2 = json.loads(out1), json.loads(out2)
        p1["seconds"] = p2["seconds"] = 0
        assert dumps(p1) == dumps(p2)

    def test_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0


class TestFormatFlag:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--format", "json", "semiprimal", "--algebra", "B2"],
            ["semiprimal", "--algebra", "B2", "--format", "json"],
        ],
    )
    def test_json_before_or_after_subcommand(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out) == {"algebra": "B2", "clone_size": 4, "semiprimal": True}

    def test_text_is_the_default(self, capsys):
        code, out, _ = run(capsys, "semiprimal", "--algebra", "B2")
        assert code == 0
        assert out.startswith("semiprimal: True")


class TestRepeatedCalls:
    """One process, many main calls: no call leaks state into the next."""

    VALIDATE = ["validate-algebra", "--algebra", "B2"]

    def test_format_before_subcommand_does_not_stick(self, capsys):
        code, out, _ = run(capsys, "--format", "json", *self.VALIDATE)
        assert code == 0
        assert json.loads(out)["algebra"] == "B2"
        code, out, _ = run(capsys, *self.VALIDATE)
        assert code == 0
        assert out.startswith("lattice: meet idempotent: pass")
        code, out, _ = run(capsys, *self.VALIDATE, "--format", "json")
        assert json.loads(out)["ok"] is True
        _, out, _ = run(capsys, *self.VALIDATE)
        assert out.startswith("lattice: ")

    def test_gamma_does_not_stick(self, capsys, monkeypatch):
        seen = []

        def record(args, fmt):
            seen.append(args)
            return cli._cmd_entail(args, fmt)

        monkeypatch.setitem(cli._COMMANDS, "entail", record)
        argv = ["entail", "--preset", "pdl-crisp", "--phi", "q", "--max-n", "1"]
        code, out, _ = run(capsys, *argv, "--gamma", "q")
        assert (code, out.split()[0]) == (0, "holds-up-to-bound")
        code, out, _ = run(capsys, *argv)
        assert (code, out.split()[0]) == (1, "fails")
        assert not seen[1].gamma
        # a caller that mutates what it was handed changes no later call
        seen[0].gamma.append("p")
        if seen[1].gamma is not None:
            seen[1].gamma.append("q")
        code, again, _ = run(capsys, *argv)
        assert code == 1 and again.split("\n")[1:] == out.split("\n")[1:]
        assert not seen[2].gamma

    @pytest.mark.parametrize(
        "bad",
        [
            ["entail", "--no-such-flag"],
            ["reduce", "--phi", "p", "--mode", "random", "--trials", "0"],
            ["nonsense"],
        ],
    )
    def test_usage_error_then_valid_call(self, capsys, bad):
        code, out, err = run(capsys, *bad)
        assert code == 2 and out == "" and "usage: mvdl" in err
        code, out, err = run(capsys, "reduce", "--preset", "pdl-crisp", "--phi", "<a+b> p")
        assert (code, out, err) == (0, "<a> p \\/ <b> p\n", "")

    @pytest.mark.parametrize("help_argv", [["--help"], ["reduce", "--help"]])
    def test_help_then_valid_call(self, capsys, help_argv):
        code, out, _ = run(capsys, *help_argv)
        assert code == 0 and out.startswith("usage: mvdl")
        code, out, err = run(capsys, "semiprimal", "--algebra", "L2")
        assert (code, out, err) == (0, "semiprimal: True (clone size 12)\n", "")

    def test_closure_budget_is_checked_per_call(self, capsys):
        # the shared L3 caches its 64-function clone; a later call with a
        # smaller budget still runs out of budget, as a fresh process would
        code, out, _ = run(capsys, "semiprimal", "--algebra", "L3")
        assert (code, out) == (0, "semiprimal: True (clone size 64)\n")
        code, _, err = run(capsys, "semiprimal", "--algebra", "L3", "--budget", "5")
        assert code == 3
        assert err == "budget exceeded: unary closure exceeded budget of 5 functions\n"


class TestSetupIsPaidOnce:
    def test_parser_is_built_once(self, capsys):
        cli.build_parser.cache_clear()
        for _ in range(5):
            run(capsys, "semiprimal", "--algebra", "B2")
        info = cli.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 4)

    def test_term_clone_is_computed_once(self, capsys, monkeypatch):
        algebra._shared_builtin.cache_clear()
        cli._builtin_config.cache_clear()
        cli._builtin_registry.cache_clear()
        calls = []
        closure = algebra.unary_term_closure

        def counting(alg, budget=algebra.DEFAULT_CLOSURE_BUDGET):
            calls.append(alg.name)
            return closure(alg, budget)

        monkeypatch.setattr(algebra, "unary_term_closure", counting)
        argv = ["reduce", "--preset", "pdl-labelled", "--algebra", "L2"]
        for _ in range(2):
            assert run(capsys, *argv, "--phi", "[?t(p)] q") == (0, "p -> q\n", "")
        assert calls == ["L2"]

    def test_preset_and_registry_are_built_once(self, capsys, monkeypatch):
        cli._builtin_config.cache_clear()
        cli._builtin_registry.cache_clear()
        made, built = [], []
        make, rules = cli.make_preset, reduction.builtin_rules

        def making(name, alg):
            made.append((name, alg.name))
            return make(name, alg)

        def building(config):
            built.append((config.name, config.truth.name))
            return rules(config)

        monkeypatch.setattr(cli, "make_preset", making)
        monkeypatch.setattr(reduction, "builtin_rules", building)
        pairs = [("pdl-crisp", "B2"), ("instantial", "B2"), ("pdl-labelled", "L2")]
        replies = []
        for _ in range(3):
            for preset, name in pairs:
                logic = ["--preset", preset, "--algebra", name]
                code, out, _ = run(capsys, "entail", *logic, "--phi", "p -> p", "--max-n", "1")
                replies.append([
                    run(capsys, "reduce", *logic, "--phi", "p /\\ q"),
                    run(capsys, "verify-rules", *logic, "--n", "1"),
                    (code, out.split(" cases")[0]),  # the text reply ends in seconds
                ])
        assert made == built == pairs
        assert replies[:3] == replies[3:6] == replies[6:]
        # a builtin spelt with leading zeros is the same builtin
        assert run(capsys, "verify-rules", "--preset", "pdl-labelled", "--algebra", "L02",
                   "--n", "1") == replies[2][1]
        assert made == built == pairs

    def test_a_json_algebra_is_read_on_every_call(self, capsys, tmp_path):
        path = tmp_path / "truth.json"

        def replies(ref):
            logic = ["--preset", "pdl-crisp", "--algebra", ref]
            code, out, _ = run(capsys, "entail", *logic, "--phi", "p -> p", "--max-n", "1")
            return run(capsys, "verify-rules", *logic, "--n", "1"), (code, out.split(" cases")[0])

        got = {}
        for name in ("B2", "L2", "B2"):
            path.write_text(dumps(algebra_to_json(algebra.algebra_by_name(name))))
            got.setdefault(name, []).append(replies(str(path)))
            assert got[name][-1] == replies(name)
        assert got["B2"][0] == got["B2"][1] != got["L2"][0]

    @pytest.mark.parametrize("family", ["L", "G"])
    def test_chain_size_is_bounded(self, capsys, family):
        largest = f"{family}{algebra.MAX_BUILTIN_CHAIN}"
        code, out, _ = run(capsys, "validate-algebra", "--algebra", largest)
        assert code == 0 and "FAIL" not in out
        too_large = f"{family}{algebra.MAX_BUILTIN_CHAIN + 1}"
        code, out, err = run(capsys, "validate-algebra", "--algebra", too_large)
        assert code == 2 and out == ""
        assert err.startswith("error [invalid-parameter]: ") and repr(too_large) in err


class TestZeroCaseSweeps:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["entail", "--phi", "p", "--max-n", "0"], "--max-n"),
            (["check-safety", "--op", ";", "--max-n", "-1"], "--max-n"),
            (["verify-rules", "--n", "0"], "--n"),
            (["check-separation", "--n", "0"], "--n"),
            (["one-step", "--kind", "threshold", "--n", "0", "--trials", "5"], "--n"),
            (["check-separation", "--mode", "random", "--trials", "-5"], "--trials"),
            (["entail", "--phi", "p", "--mode", "random", "--trials", "0"], "--trials"),
            (["one-step", "--kind", "threshold", "--trials", "-1"], "--trials"),
        ],
    )
    def test_rejected_with_flag_named(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"argument {flag}:" in err
        assert "holds" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["entail", "--preset", "pdl-crisp", "--phi", "p -> [a]p", "--budget", "0"],
            ["verify-rules", "--budget", "0"],
            ["check-safety", "--op", ";", "--budget", "-5"],
            ["check-separation", "--budget", "0"],
            ["semiprimal", "--algebra", "L2", "--budget", "0"],
        ],
    )
    def test_budget_below_one_is_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert "argument --budget:" in err
        assert out == ""

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_env_budget_below_one_is_rejected(self, capsys, monkeypatch, value):
        monkeypatch.setenv("MVDL_BUDGET", value)
        code, out, err = run(capsys, "verify-rules", "--n", "1")
        assert code == 2
        assert "MVDL_BUDGET" in err
        assert out == ""

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MVDL_BUDGET", "0")
        code, _, _ = run(capsys, "verify-rules", "--n", "1", "--budget", "1000")
        assert code == 0

    def test_default_budget_is_the_sweep_default(self, capsys, monkeypatch):
        # without --budget or MVDL_BUDGET a command sweeps under the sweeps'
        # own default: 81 coalgebras at n=2 exceed a default of 10
        monkeypatch.delenv("MVDL_BUDGET", raising=False)
        monkeypatch.setattr(harness, "DEFAULT_SWEEP_BUDGET", 10)
        argv = ["verify-rules", "--preset", "pdl-labelled", "--algebra", "L2", "--n", "2"]
        code, _, _ = run(capsys, *argv)
        assert code == 3

    @pytest.mark.parametrize("seed", ["1", "2", "3", "5"])
    def test_sampled_separation_without_a_pair_names_trials(self, capsys, seed):
        # pdl-crisp has two values at one state, and these seeds draw one
        # of them twice in the one trial
        code, out, err = run(
            capsys, "check-separation", "--preset", "pdl-crisp", "--n", "1",
            "--mode", "random", "--trials", "1", "--seed", seed,
        )
        assert code == 2 and out == ""
        assert err.startswith("error [invalid-parameter]: trials=1 ") and "n=1" in err

    def test_one_step_zero_trials_reads_h(self, capsys):
        code, _, err = run(capsys, "one-step", "--kind", "threshold", "--trials", "0")
        assert code == 2
        assert "--h" in err

    def test_jobs_flag_is_gone(self, capsys):
        code, _, err = run(capsys, "entail", "--phi", "p", "--jobs", "1")
        assert code == 2
        assert "unrecognized arguments: --jobs" in err

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (["validate-algebra", "--builtin", "B2"], ["--max-n", "2"]),
            (["semiprimal", "--algebra", "B2"], ["--seed", "1"]),
            (["eval", "--model", "m.json", "--phi", "p"], ["--algebra", "L2"]),
            (["reduce", "--phi", "p"], ["--max-n", "3"]),
            (["reduce", "--phi", "p"], ["--budget", "5", "--trials", "9", "--seed", "1"]),
            (["reduce", "--phi", "p"], ["--mode", "random"]),
            (["verify-rules"], ["--max-n", "3"]),
            (["check-safety", "--op", ";"], ["--n", "3"]),
            (["check-separation"], ["--max-n", "3"]),
            (["one-step", "--kind", "threshold", "--trials", "5"], ["--mode", "random"]),
            (["entail", "--phi", "p"], ["--n", "3"]),
        ],
    )
    def test_flags_the_command_does_not_read_are_rejected(self, capsys, argv, flags):
        # a flag is accepted only by the subcommands whose handler reads it,
        # so a misplaced one is an error rather than silently ignored
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {' '.join(flags)}" in err


class TestMalformedInput:
    @pytest.mark.parametrize(
        "text, named",
        [
            ('{"n": 1, "preset": "pdl-crisp", "atoms": {}}', "missing field 'algebra'"),
            ("{not json", "not valid JSON"),
            (
                '{"n": 2, "algebra": "B2", "preset": "pdl-crisp", "atoms": {"a": ["x", 1]}}',
                "'atoms.a'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "nope"}, "atoms": {}}',
                "config field 'kind'",
            ),
            (
                '{"n": 1, "preset": "pdl-crisp", "atoms": {}, "algebra": {"m": 2,'
                ' "meet": [[0]], "join": [[0, 1], [1, 1]], "tensor": [[0, 0], [0, 1]]}}',
                "algebra field 'meet'",
            ),
            # these three used to escape as AttributeError, and the subset as
            # TypeError, with exit 1
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "liftings": []},'
                ' "atoms": {}}',
                "config field 'liftings'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "ops": "+"},'
                ' "atoms": {}}',
                "config field 'ops'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "tests": [1]},'
                ' "atoms": {}}',
                "config field 'tests'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset",'
                ' "tests": {"t": {"variant": "test-p", "subset": 5}}}, "atoms": {}}',
                "field 'subset'",
            ),
            # JSON booleans where integers go used to be read as 0 and 1:
            # each of these evaluated p with exit 0
            (
                '{"n": true, "algebra": "B2", "preset": "pdl-crisp", "atoms": {},'
                ' "valuation": {"p": [1]}}',
                "model field 'n'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "liftings":'
                ' {"l": {"variant": "box-crisp", "arity": true}}}, "atoms": {},'
                ' "valuation": {"p": [1]}}',
                "field 'arity'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "liftings":'
                ' {"l": {"variant": "box-crisp", "param": true}}}, "atoms": {},'
                ' "valuation": {"p": [1]}}',
                "field 'param'",
            ),
            (
                '{"n": 1, "algebra": "B2", "config": {"kind": "powerset", "tests":'
                ' {"t": {"variant": "test-p", "subset": [true]}}}, "atoms": {},'
                ' "valuation": {"p": [1]}}',
                "field 'subset'",
            ),
            (
                '{"n": 1, "preset": "pdl-crisp", "atoms": {}, "valuation": {"p": [1]},'
                ' "algebra": {"m": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],'
                ' "tensor": [[0, 0], [0, 1]], "extras": {"neg": [true, 0]}}}',
                "algebra field 'extras'",
            ),
            (
                '{"n": 1, "preset": "pdl-crisp", "atoms": {}, "valuation": {"p": [1]},'
                ' "algebra": {"m": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],'
                ' "tensor": [[0, 0], [0, 1]], "constants": {"c": true}}}',
                "algebra field 'constants'",
            ),
        ],
    )
    def test_model_file(self, capsys, tmp_path, text, named):
        path = tmp_path / "model.json"
        path.write_text(text)
        code, _, err = run(capsys, "eval", "--model", str(path), "--phi", "p")
        assert code == 2
        assert "invalid-parameter" in err and named in err

    @pytest.mark.parametrize(
        "preset, atoms, valuation, named",
        [
            # non-integers used to be truncated by int(): [0.9, 2] read as [0, 2]
            ("pdl-labelled", [[0, 1], [2, 2]], [0.9, 2], "'valuation.p'"),
            ("pdl-labelled", [[0, 1], [2, 2]], [True, 2], "'valuation.p'"),
            ("pdl-labelled", [[0, 1], [2, 2]], ["1", 2], "'valuation.p'"),
            ("pdl-labelled", [[0, 1.0], [2, 2]], [0, 2], "'atoms.a'"),
            ("pdl-labelled", [[0, 1], [False, 2]], [0, 2], "'atoms.a'"),
            # [true, 1.5] used to be read as the bitmasks [1, 1]
            ("pdl-crisp", [True, 1.5], [0, 1], "'atoms.a'"),
            ("pdl-crisp", [1, 2.0], [0, 1], "'atoms.a'"),
            ("instantial", [[1, 0.5], []], [0, 1], "'atoms.a'"),
        ],
    )
    def test_model_numbers_are_json_integers(
        self, capsys, tmp_path, preset, atoms, valuation, named
    ):
        model = {
            "n": 2, "algebra": "B2" if preset != "pdl-labelled" else "L2", "preset": preset,
            "atoms": {"a": atoms}, "valuation": {"p": valuation},
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model))
        code, out, err = run(capsys, "eval", "--model", str(path), "--phi", "p")
        assert (code, out) == (2, "")
        assert "expected an integer" in err and named in err
        assert "Traceback" not in err

    def test_one_step_h_not_json(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text("entries: none")
        code, _, err = run(
            capsys, "one-step", "--kind", "threshold", "--algebra", "L2", "--h", str(path)
        )
        assert code == 2
        assert "not valid JSON" in err

    def test_one_step_h_bad_entry(self, capsys, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"entries": [[[1, 0], 0], [1]]}')
        code, _, err = run(
            capsys, "one-step", "--kind", "threshold", "--algebra", "L2", "--h", str(path)
        )
        assert code == 2
        assert "'entries[1]'" in err

    @pytest.mark.parametrize(
        "kind, i, entry, named",
        [
            # an element outside L2 used to escape as IndexError, exit 1
            ("labelled-diamond", 4, [[1, 1], 7], "value 7 is outside 0..2"),
            # a negative value used to be accepted and named in the witness
            ("monotone-eval", 2, [[0, 2], -1], "value -1 is outside 0..2"),
            ("threshold", 1, [[1, 1], 2], "value 2 is outside 0..1"),
            # keys outside the atom space used to be ignored
            ("labelled-diamond", 3, [[1, 0, 0], 1], "key [1, 0, 0] is not a labelled-diamond atom"),
            ("monotone-eval", 0, [[0], 0], "key [0] is not a monotone-eval atom"),
            ("threshold", 0, [[0, 1], 0], "key [0, 1] is not a threshold atom"),
            ("threshold", 5, [[1, 4], 0], "key [1, 4] is not a threshold atom"),
            ("threshold", 2, [[1, 1, 0], 1], "key [1, 1, 0] is not a threshold atom"),
            ("labelled-diamond", 1, [[0, 0], 0], "key [0, 0] was given before"),
            ("labelled-diamond", 0, [[0, 0], 1.5], "is not a [key, value] pair of integers"),
        ],
    )
    def test_one_step_h_outside_atoms(self, capsys, tmp_path, kind, i, entry, named):
        L2 = build_builtin("lukasiewicz", 2)
        H = harness.one_step_assignment(kind, L2, 2, (1, 2) if kind != "monotone-eval" else (0,) * 9)
        entries = [[list(key), value] for key, value in H.items()]
        entries[i] = entry
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"entries": entries}))
        code, out, err = run(
            capsys, "one-step", "--kind", kind, "--algebra", "L2", "--n", "2", "--h", str(path)
        )
        assert (code, out) == (2, "")
        assert f"field 'entries[{i}]'" in err and named in err
        assert "Traceback" not in err
