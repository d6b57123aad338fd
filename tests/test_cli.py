from __future__ import annotations

import pathlib
import subprocess
import sys
from dataclasses import fields

import pytest
from click.testing import CliRunner

from modalrel import GenParams, parse_algebra, parse_query, translate_query
from modalrel.cli import (
    EXIT_MISMATCH,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_QUERY_ERROR,
    EXIT_UNTRANSLATABLE,
    EXIT_USAGE,
    cli,
    main,
)
from modalrel.syntax import MAX_NESTING

EXPECTED_TABLES = {
    "Sta.tsv": "1\td\n2\ta\n3\tb\n4\tc\n",
    "Rel.tsv": "1\t2\tCOMP\n1\t3\tCOMP\n1\t4\tCOMP\n",
    "Con.tsv": "code\nid\n",
    "Obj.tsv": "1\n2\n3\n4\na\nb\nc\nd\n",
}


@pytest.fixture
def runner():
    return CliRunner()


def run_main(argv):
    """Run the real entry point, capturing its exit code."""
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code or 0
    return 0


# ---------------------------------------------------------------------------
# map


def test_map_writes_expected_tables(runner, example_model_path, tmp_path):
    result = runner.invoke(
        cli, ["map", str(example_model_path), "--out-dir", str(tmp_path)]
    )
    assert result.exit_code == 0
    for name, expected in EXPECTED_TABLES.items():
        assert (tmp_path / name).read_text() == expected


def test_map_minimal_model(runner, tmp_path):
    model_file = tmp_path / "mini.yaml"
    model_file.write_text(
        "objects: [s]\nconcepts: [id]\nstates: [{id: s}]\nrelations: {R: []}\n"
    )
    result = runner.invoke(cli, ["map", str(model_file), "--out-dir", str(tmp_path)])
    assert result.exit_code == 0
    assert (tmp_path / "Sta.tsv").read_text() == "s\n"
    assert (tmp_path / "Rel.tsv").read_text() == ""


def test_map_duplicate_ids_exit_code(example_model_path, tmp_path):
    broken = tmp_path / "broken.yaml"
    broken.write_text(
        example_model_path.read_text().replace("{id: 2, code: a}", "{id: 1, code: a}")
    )
    assert run_main(["map", str(broken)]) == EXIT_MODEL_ERROR


def test_map_rejects_object_with_tab(tmp_path):
    model_file = tmp_path / "tab.yaml"
    model_file.write_text(
        'objects: ["a\\tb", c]\nconcepts: [id]\nstates: [{id: "a\\tb"}, {id: c}]\n'
        'relations: {R: [["a\\tb", c]]}\n'
    )
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == EXIT_MODEL_ERROR
    assert not list(tmp_path.glob("*.tsv"))


@pytest.mark.parametrize("out_dir", ["Sta.tsv", "Sta.tsv/sub"])
def test_map_unwritable_out_dir_is_usage_error(example_model_path, tmp_path, capsys, out_dir):
    (tmp_path / "Sta.tsv").write_text("")
    argv = ["map", str(example_model_path), "--out-dir", str(tmp_path / out_dir)]
    assert run_main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("Error: ") and err.count("\n") == 1


def test_map_missing_file_exit_code(tmp_path):
    assert run_main(["map", str(tmp_path / "nope.yaml")]) == EXIT_MODEL_ERROR


def test_map_rejects_relation_that_is_not_a_pair_list(tmp_path, capsys):
    model_file = tmp_path / "int.yaml"
    model_file.write_text("objects: [s]\nconcepts: [id]\nstates: [{id: s}]\nrelations: {R: 5}\n")
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == EXIT_MODEL_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_map_rejects_model_file_that_is_not_utf8(tmp_path, capsys):
    model_file = tmp_path / "bytes.yaml"
    model_file.write_bytes(b"\xff\xfe")
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == EXIT_MODEL_ERROR
    assert capsys.readouterr().err.startswith("error: ")


# ---------------------------------------------------------------------------
# eval


def test_eval_both_engines(runner, example_model_path):
    result = runner.invoke(cli, ["eval", str(example_model_path), "@code = 'b'"])
    assert result.exit_code == 0
    assert result.output == "3\n"


def test_eval_with_target(runner, example_model_path):
    result = runner.invoke(
        cli, ["eval", str(example_model_path), "@id = '3' & @code = ?a", "-t", "?a"]
    )
    assert result.output == "b\t3\n"


def test_eval_direct_lambda_empty(runner, example_model_path):
    result = runner.invoke(
        cli,
        ["eval", str(example_model_path), "<lam ?y . <COMP> @code = ?y>(@code)",
         "--engine", "direct"],
    )
    assert result.exit_code == 0
    assert result.output == ""


def test_eval_header_flag(runner, example_model_path):
    result = runner.invoke(
        cli, ["eval", str(example_model_path), "@code = 'b'", "--header"]
    )
    assert result.output == "1\n3\n"


def test_eval_untranslatable_exit_code(example_model_path):
    # the one exit code the engines may differ on: the direct engine answers
    for engine, expected in (("direct", EXIT_OK), ("algebra", EXIT_UNTRANSLATABLE),
                             ("both", EXIT_UNTRANSLATABLE)):
        argv = ["eval", str(example_model_path), "exists %g . @%g = 'b'", "--engine", engine]
        assert run_main(argv) == expected, engine


def test_eval_parse_error_exit_code(example_model_path):
    assert run_main(["eval", str(example_model_path), "code = 'b'"]) == EXIT_QUERY_ERROR
    assert run_main(["eval", str(example_model_path), "?x ="]) == EXIT_QUERY_ERROR
    assert run_main(["eval", str(example_model_path), "?x = ?x"]) == EXIT_QUERY_ERROR  # target


def test_eval_usage_error_exit_code(example_model_path):
    assert run_main(["eval", str(example_model_path), "?x = ?x", "--engine", "bogus"]) == EXIT_USAGE
    assert run_main(["eval"]) == EXIT_USAGE


def test_eval_unknown_relation_exit_code(example_model_path):
    assert run_main(["eval", str(example_model_path), "<NOPE> @code = 'b'"]) == EXIT_QUERY_ERROR


UNDECLARED_SYMBOL = {
    "unreached-constant": "@id = @id | <COMP> @code = 'zz'",
    "constant-past-untranslatable": "exists %g . @%g = 'zz'",
    "unreached-relation": "'a' = 'a' | <NOPE> @code = 'b'",
    "unreached-lambda-argument": "'a' = 'a' | <lam %g . 'a' = 'a'>(nope)",
    "constant-under-vacuous-boxes": "[COMP] " * MAX_NESTING + "@code = 'zz'",
}


@pytest.mark.parametrize("engine", ["direct", "algebra", "both"])
@pytest.mark.parametrize("text", UNDECLARED_SYMBOL.values(), ids=UNDECLARED_SYMBOL.keys())
def test_eval_undeclared_symbol_exit_code_on_every_engine(example_model_path, text, engine):
    # the symbols are checked before either engine runs, reached or not
    argv = ["eval", str(example_model_path), text, "--engine", engine]
    assert run_main(argv) == EXIT_QUERY_ERROR


TOO_DEEP = {
    "negations": "!" * 600 + "'a' = 'a'",
    "parentheses": "(" * 1000 + "'a' = 'a'" + ")" * 1000,
    "conjunctions": " & ".join(["'a' = 'a'"] * 1200),
}


@pytest.mark.parametrize("text", TOO_DEEP.values(), ids=TOO_DEEP.keys())
def test_eval_too_deep_query_exit_code(example_model_path, text, capsys):
    argv = ["eval", str(example_model_path), text, "--engine", "algebra"]
    assert run_main(argv) == EXIT_QUERY_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def test_eval_box_chain_at_nesting_limit(runner, example_model_path):
    # --engine both answers only when the two engines agree
    text = "[COMP] " * MAX_NESTING + "@code = 'b'"
    result = runner.invoke(cli, ["eval", str(example_model_path), text, "--engine", "both"])
    assert result.exit_code == 0, result.output
    assert result.output == "1\n2\n3\n4\n"


def test_fuzz_rejects_depth_past_nesting_limit():
    assert run_main(["fuzz", "--cases", "1", "--max-depth", "100"]) == EXIT_USAGE


@pytest.mark.parametrize("engine", ["algebra", "direct"])
def test_eval_unknown_lambda_argument_exit_code(example_model_path, engine):
    argv = ["eval", str(example_model_path), "<lam ?y . 'a' = 'a'>('zz')", "--engine", engine]
    assert run_main(argv) == EXIT_QUERY_ERROR


def test_eval_both_prints_nothing_on_disagreement(runner, example_model_path, monkeypatch):
    import modalrel.cli as cli_module

    every_object = parse_algebra("(project (1) Obj)")
    monkeypatch.setattr(cli_module, "translate_query", lambda q, m: every_object)
    result = runner.invoke(cli, ["eval", str(example_model_path), "@code = 'b'"])
    assert result.exit_code == EXIT_MISMATCH
    assert result.stdout == ""


# ---------------------------------------------------------------------------
# translate


def test_translate_prints_simplified_algebra(runner, example_model_path):
    result = runner.invoke(cli, ["translate", str(example_model_path), "@code = 'b'"])
    assert result.output == "(project (1) (select (= 2 'b') Sta))\n"


@pytest.mark.parametrize("text", ["<COMP> @code = 'b'", "[COMP] @code = 'b'"])
def test_translate_prints_the_plan_it_evaluates(runner, example_model_path, example_model, text):
    result = runner.invoke(cli, ["translate", str(example_model_path), text, "--eval"])
    assert result.exit_code == 0
    printed = parse_algebra(result.output.splitlines()[0])
    assert printed == translate_query(parse_query(text), example_model)


def test_translate_with_eval(runner, example_model_path):
    result = runner.invoke(
        cli, ["translate", str(example_model_path), "<COMP> @code = 'b'", "--eval"]
    )
    lines = result.output.splitlines()
    assert lines[0].startswith("(project (2) (select (= 4 'COMP')")
    assert lines[1] == "1"


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_small_campaign(runner):
    result = runner.invoke(cli, ["fuzz", "--seed", "42", "--cases", "10"])
    assert result.exit_code == 0
    assert "passed: 10" in result.output
    assert "status: OK" in result.output


def test_fuzz_options_are_the_gen_params_fields():
    options = {param.name: param for param in cli.commands["fuzz"].params}
    assert set(options) == {f.name for f in fields(GenParams)} | {"cases", "report_path"}
    for field in fields(GenParams):
        option = options[field.name]
        assert option.opts == ["--" + field.name.replace("_", "-")]
        assert (option.default, option.is_flag) == (field.default, isinstance(field.default, bool))


def test_fuzz_allow_concept_vars_routes_untranslatable(runner):
    result = runner.invoke(cli, ["fuzz", "--seed", "7", "--cases", "200", "--allow-concept-vars"])
    assert result.exit_code == 0
    assert "passed: 188\n" in result.stdout
    assert "untranslatable (direct engine only): 12\n" in result.stdout


def test_fuzz_rejects_zero_cases():
    assert run_main(["fuzz", "--cases", "0"]) == EXIT_USAGE


def test_fuzz_report_file(runner, tmp_path):
    report = tmp_path / "report.json"
    result = runner.invoke(
        cli, ["fuzz", "--seed", "1", "--cases", "5", "--report", str(report)]
    )
    assert result.exit_code == 0
    assert '"status": "OK"' in report.read_text()


def test_fuzz_unwritable_report_is_usage_error(tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    assert run_main(["fuzz", "--cases", "1", "--report", str(report)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("Error: ") and "Traceback" not in err


def test_fuzz_stdout_deterministic_across_hash_seeds(example_model_path):
    """Re-running in fresh interpreters with different hash seeds must not
    change a single output byte."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for hash_seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "modalrel.cli", "fuzz", "--seed", "11", "--cases", "25"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
