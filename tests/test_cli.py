from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import fields

import pytest

import modalrel
import modalrel.harness
from modalrel import (
    DegreeError,
    FreeVarMismatch,
    GenParams,
    KindError,
    ModalRelError,
    ModelInvariantError,
    QuerySyntaxError,
    UnknownConstant,
    UnknownRelation,
    UntranslatableTerm,
    answer_direct,
    evaluate,
    parse_algebra,
    parse_model,
    parse_query,
    run_campaign,
    to_tsv,
    translate_query,
)
from modalrel.cli import (
    EXIT_MISMATCH,
    EXIT_MODEL_ERROR,
    EXIT_OK,
    EXIT_QUERY_ERROR,
    EXIT_UNTRANSLATABLE,
    EXIT_USAGE,
    main,
)
from modalrel.syntax import MAX_NESTING
from test_acceptance import BoxAsDiamond
from test_kripke import KEYS_EQUAL_AS_STRINGS
from test_syntax import NOT_VARIABLE_NAMES

EXPECTED_TABLES = {
    "Sta.tsv": "1\td\n2\ta\n3\tb\n4\tc\n",
    "Rel.tsv": "1\t2\tCOMP\n1\t3\tCOMP\n1\t4\tCOMP\n",
    "Con.tsv": "code\nid\n",
    "Obj.tsv": "1\n2\n3\n4\na\nb\nc\nd\n",
}


ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_main(argv):
    """Run the real entry point, capturing its exit code."""
    try:
        main(argv)
    except SystemExit as exc:
        return exc.code or 0
    return 0


def child_env(**extra: str) -> dict[str, str]:
    """The inherited environment, with the source tree first on PYTHONPATH."""
    env = {**os.environ, **extra}
    path = os.environ.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + path if path else "")
    return env


# ---------------------------------------------------------------------------
# map


def test_map_writes_expected_tables(example_model_path, tmp_path):
    assert run_main(["map", str(example_model_path), "--out-dir", str(tmp_path)]) == 0
    for name, expected in EXPECTED_TABLES.items():
        assert (tmp_path / name).read_text() == expected


def test_map_minimal_model(tmp_path):
    model_file = tmp_path / "mini.yaml"
    model_file.write_text(
        "objects: [s]\nconcepts: [id]\nstates: [{id: s}]\nrelations: {R: []}\n"
    )
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == 0
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


@pytest.mark.parametrize("text", KEYS_EQUAL_AS_STRINGS.values(), ids=KEYS_EQUAL_AS_STRINGS.keys())
def test_map_rejects_keys_equal_as_strings(tmp_path, capsys, text):
    model_file = tmp_path / "keys.yaml"
    model_file.write_text(text)
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == EXIT_MODEL_ERROR
    assert "distinct" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.tsv"))


def test_map_rejects_model_file_that_is_not_utf8(tmp_path, capsys):
    model_file = tmp_path / "bytes.yaml"
    model_file.write_bytes(b"\xff\xfe")
    assert run_main(["map", str(model_file), "--out-dir", str(tmp_path)]) == EXIT_MODEL_ERROR
    assert capsys.readouterr().err.startswith("error: ")


SURROGATE_MODEL = (
    'objects: ["\\ud800", c]\nconcepts: [id]\nstates: [{id: "\\ud800"}, {id: c}]\n'
    "relations: {R: []}\n"
)


@pytest.mark.parametrize("command", [["eval", "@id = @id"], ["map", "--out-dir", "."]],
                         ids=["eval", "map"])
def test_model_with_lone_surrogate_exit_code(tmp_path, capsys, monkeypatch, command):
    # "\ud800" reads as a lone surrogate, which no UTF-8 output can hold.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.yaml").write_text(SURROGATE_MODEL)
    assert run_main([command[0], "m.yaml", *command[1:]]) == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "surrogate" in err and "Traceback" not in err
    assert not list(tmp_path.glob("*.tsv"))


DEEP_MODELS = {
    "objects": "objects: " + "[" * 5000 + "a" + "]" * 5000
    + "\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: []}\n",
    "relations": "objects: [a]\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: "
    + "[" * 3000 + "]" * 3000 + "}\n",
}


MODEL_TAIL = "\nconcepts: [id]\nstates: [{id: a}]\nrelations: {R: []}\n"
# Values the model format rejects that YAML still reads.
LARGE_REJECTED_VALUES = {
    "nested-400-deep": "objects: [a, " + "[" * 400 + "b" + "]" * 400 + "]" + MODEL_TAIL,
    "list-of-20000": "objects: [a, [" + ", ".join(f"x{i}" for i in range(20000)) + "]]"
    + MODEL_TAIL,
}


@pytest.mark.parametrize("text", LARGE_REJECTED_VALUES.values(), ids=LARGE_REJECTED_VALUES.keys())
def test_large_rejected_value_prints_a_short_line(tmp_path, capsys, text):
    model_file = tmp_path / "large.yaml"
    model_file.write_text(text)
    assert run_main(["eval", str(model_file), "@id = @id"]) == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200 and "Traceback" not in err
    assert "must be strings or numbers" in err


# Values YAML reads that Python cannot turn into text, or that PyYAML cannot
# construct: more decimal digits than int() and str() convert (4,300 by
# default), in decimal, in hexadecimal (which int() reads past the limit) and
# inside a rejected list, and a date that does not exist.
UNREADABLE_VALUES = {
    "decimal-5000-digits": "objects: [" + "9" * 5000 + "]" + MODEL_TAIL,
    "hex-5000-digits": "objects: [0x" + "f" * 5000 + "]" + MODEL_TAIL,
    "hex-in-a-list": "objects: [a, [0x" + "f" * 5000 + "]]" + MODEL_TAIL,
    "month-13": "objects: [2020-13-01]" + MODEL_TAIL,
}


@pytest.mark.parametrize("text", UNREADABLE_VALUES.values(), ids=UNREADABLE_VALUES.keys())
def test_unreadable_value_exit_code(tmp_path, capsys, text):
    model_file = tmp_path / "unreadable.yaml"
    model_file.write_text(text)
    assert run_main(["eval", str(model_file), "@id = @id"]) == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text", DEEP_MODELS.values(), ids=DEEP_MODELS.keys())
def test_deeply_nested_model_file_exit_code(tmp_path, capsys, text):
    model_file = tmp_path / "deep.yaml"
    model_file.write_text(text)
    assert run_main(["eval", str(model_file), "@id = @id"]) == EXIT_MODEL_ERROR
    err = capsys.readouterr().err
    assert err == "error: model file is nested too deeply\n"


# 40,000 levels: deep enough that libyaml's loader (PyYAML's CSafeLoader)
# dies with SIGSEGV, in a child process so that a crash fails the test.
FORTY_THOUSAND_DEEP = {
    "flow": "objects: " + "[" * 40000 + "a" + "]" * 40000 + MODEL_TAIL,
    "block": "objects:\n  " + "- " * 40000 + "a" + MODEL_TAIL,
}


@pytest.mark.parametrize("text", FORTY_THOUSAND_DEEP.values(), ids=FORTY_THOUSAND_DEEP.keys())
def test_forty_thousand_levels_exit_3_in_a_fresh_process(tmp_path, text):
    model_file = tmp_path / "deep.yaml"
    model_file.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "modalrel.cli", "eval", str(model_file), "@id = @id"],
        capture_output=True, text=True, env=child_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (
        EXIT_MODEL_ERROR, "error: model file is nested too deeply\n", ""
    )


# ---------------------------------------------------------------------------
# eval


def test_eval_both_engines(example_model_path, capsys):
    assert run_main(["eval", str(example_model_path), "@code = 'b'"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_eval_with_target(example_model_path, capsys):
    run_main(["eval", str(example_model_path), "@id = '3' & @code = ?a", "-t", "?a"])
    assert capsys.readouterr().out == "b\t3\n"


def test_eval_direct_lambda_empty(example_model_path, capsys):
    argv = ["eval", str(example_model_path), "<lam ?y . <COMP> @code = ?y>(@code)",
            "--engine", "direct"]
    assert run_main(argv) == 0
    assert capsys.readouterr().out == ""


def test_eval_header_flag(example_model_path, capsys):
    run_main(["eval", str(example_model_path), "@code = 'b'", "--header"])
    assert capsys.readouterr().out == "1\n3\n"


# Two objects that differ only by a terminal escape sequence.
ANSI_MODEL = (
    'objects: ["\\e[31mred", red]\nconcepts: [id]\n'
    'states: [{id: "\\e[31mred"}, {id: red}]\nrelations: {R: []}\n'
)


def test_output_keeps_terminal_escapes(tmp_path, capsys):
    model_file = tmp_path / "ansi.yaml"
    model_file.write_text(ANSI_MODEL)
    model = parse_model(ANSI_MODEL)
    assert run_main(["eval", str(model_file), "@id = @id"]) == 0
    out = capsys.readouterr().out
    assert out == to_tsv(answer_direct(model, parse_query("@id = @id")))
    assert len(set(out.splitlines())) == 2
    text = "@id = '\x1b[31mred'"
    assert run_main(["translate", str(model_file), text, "--eval"]) == 0
    plan = capsys.readouterr().out.splitlines()[0]
    assert parse_algebra(plan) == translate_query(parse_query(text), model)


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


@pytest.mark.parametrize("name", NOT_VARIABLE_NAMES)
def test_eval_target_that_is_not_a_variable_name_exit_code(example_model_path, capsys, name):
    argv = ["eval", str(example_model_path), "?x = ?x", "-t", name]
    assert run_main(argv) == EXIT_QUERY_ERROR
    assert "not a variable name" in capsys.readouterr().err


def test_eval_usage_error_exit_code(example_model_path):
    assert run_main(["eval", str(example_model_path), "?x = ?x", "--engine", "bogus"]) == EXIT_USAGE
    assert run_main(["eval"]) == EXIT_USAGE
    assert run_main([]) == EXIT_USAGE
    assert run_main(["bogus"]) == EXIT_USAGE
    # options are never abbreviated
    assert run_main(["eval", str(example_model_path), "?x = ?x", "--eng", "both"]) == EXIT_USAGE


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


def test_eval_box_chain_at_nesting_limit(example_model_path, capsys):
    # --engine both answers only when the two engines agree
    text = "[COMP] " * MAX_NESTING + "@code = 'b'"
    code = run_main(["eval", str(example_model_path), text, "--engine", "both"])
    out, err = capsys.readouterr()
    assert code == 0, err
    assert out == "1\n2\n3\n4\n"


def test_fuzz_rejects_depth_past_nesting_limit():
    assert run_main(["fuzz", "--cases", "1", "--max-depth", "100"]) == EXIT_USAGE


@pytest.mark.parametrize("engine", ["algebra", "direct"])
def test_eval_unknown_lambda_argument_exit_code(example_model_path, engine):
    argv = ["eval", str(example_model_path), "<lam ?y . 'a' = 'a'>('zz')", "--engine", engine]
    assert run_main(argv) == EXIT_QUERY_ERROR


def test_eval_both_prints_nothing_on_disagreement(example_model_path, monkeypatch, capsys):
    import modalrel.cli as cli_module

    every_object = parse_algebra("(project (1) Obj)")
    monkeypatch.setattr(cli_module, "translate_query", lambda q, m: every_object)
    assert run_main(["eval", str(example_model_path), "@code = 'b'"]) == EXIT_MISMATCH
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# translate


def test_translate_prints_simplified_algebra(example_model_path, capsys):
    run_main(["translate", str(example_model_path), "@code = 'b'"])
    assert capsys.readouterr().out == "(project (1) (select (= 2 'b') Sta))\n"


@pytest.mark.parametrize("text", ["<COMP> @code = 'b'", "[COMP] @code = 'b'"])
def test_translate_prints_the_plan_it_evaluates(example_model_path, example_model, capsys, text):
    assert run_main(["translate", str(example_model_path), text, "--eval"]) == 0
    printed = parse_algebra(capsys.readouterr().out.splitlines()[0])
    assert printed == translate_query(parse_query(text), example_model)


def test_translate_with_eval(example_model_path, capsys):
    run_main(["translate", str(example_model_path), "<COMP> @code = 'b'", "--eval"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("(project (2) (select (= 4 'COMP')")
    assert lines[1] == "1"


# ---------------------------------------------------------------------------
# fuzz


def test_fuzz_small_campaign(capsys):
    assert run_main(["fuzz", "--seed", "42", "--cases", "10"]) == 0
    out = capsys.readouterr().out
    assert "passed: 10" in out
    assert "status: OK" in out
    assert run_main(["fuzz", "--seed", "-5", "--cases", "3"]) == 0


def test_fuzz_options_are_the_gen_params_fields(monkeypatch):
    reached = []

    def record(params, cases):
        reached.append(params)
        return run_campaign(params, 1)

    monkeypatch.setattr(modalrel.harness, "run_campaign", record)
    changed = {f.name: not f.default if isinstance(f.default, bool) else f.default + 1
               for f in fields(GenParams)}
    argv = ["fuzz", "--cases", "1"]
    for name, value in changed.items():
        option = "--" + name.replace("_", "-")
        argv += [option] if value is True else [option, str(value)]
    assert run_main(argv) == 0
    assert run_main(["fuzz"]) == 0
    assert reached == [GenParams(**changed), GenParams()]


def test_fuzz_allow_concept_vars_routes_untranslatable(capsys):
    assert run_main(["fuzz", "--seed", "7", "--cases", "200", "--allow-concept-vars"]) == 0
    out = capsys.readouterr().out
    assert "passed: 188\n" in out
    assert "untranslatable (direct engine only): 12\n" in out


def test_fuzz_rejects_zero_cases():
    assert run_main(["fuzz", "--cases", "0"]) == EXIT_USAGE
    assert run_main(["fuzz", "--cases", "x"]) == EXIT_USAGE


def test_fuzz_interrupted_exits_without_traceback(monkeypatch, capsys):
    def interrupt(params, cases):
        raise KeyboardInterrupt

    monkeypatch.setattr(modalrel.harness, "run_campaign", interrupt)
    assert run_main(["fuzz", "--cases", "1"]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err


def test_fuzz_mismatch_prints_first_failure_and_exits_5(monkeypatch, capsys, tmp_path):
    summaries = []

    def broken(params, cases):
        summaries.append(run_campaign(params, cases, translator_factory=BoxAsDiamond))
        return summaries[-1]

    monkeypatch.setattr(modalrel.harness, "run_campaign", broken)
    report = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc_info:
        main(["fuzz", "--cases", "1000", "--report", str(report)])
    assert exc_info.value.code == EXIT_MISMATCH == 5
    assert capsys.readouterr().out == summaries[0].render()
    assert json.loads(report.read_text())["first_failure"] is not None


def test_fuzz_report_file(tmp_path):
    report = tmp_path / "report.json"
    assert run_main(["fuzz", "--seed", "1", "--cases", "5", "--report", str(report)]) == 0
    assert '"status": "OK"' in report.read_text()


def test_fuzz_unwritable_report_is_usage_error(tmp_path, capsys):
    report = tmp_path / "missing" / "report.json"
    assert run_main(["fuzz", "--cases", "1", "--report", str(report)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("Error: ") and "Traceback" not in err


def test_fuzz_stdout_deterministic_across_hash_seeds(example_model_path):
    """Re-running in fresh interpreters with different hash seeds must not
    change a single output byte."""
    outputs = []
    for hash_seed in ("0", "424242"):
        proc = subprocess.run(
            [sys.executable, "-m", "modalrel.cli", "fuzz", "--seed", "11", "--cases", "25"],
            capture_output=True,
            text=True,
            env=child_env(PYTHONHASHSEED=hash_seed),
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_imports_no_third_party_module_but_yaml():
    # Only modules loaded from a file count: PyYAML's Cython extension also
    # registers in-memory helper modules such as cython_runtime.
    probe = (
        "import json, sys; before = set(sys.modules); import modalrel.cli; "
        "print(json.dumps([name for name in set(sys.modules) - before "
        "if getattr(sys.modules[name], '__file__', None)]))"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), check=True)
    loaded = {name.partition(".")[0] for name in json.loads(proc.stdout)}
    assert loaded - set(sys.stdlib_module_names) <= {"modalrel", "yaml"}
    pyproject = (ROOT / "pyproject.toml").read_text()
    dependencies = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S).group(1)
    names = [re.match(r"[\w.-]+", spec).group() for spec in re.findall(r'"(.*?)"', dependencies)]
    assert names == ["PyYAML"]


# ---------------------------------------------------------------------------
# Start-up: a command imports only the modules it runs


NOT_FOR_ONE_QUERY = {"modalrel.harness", "hashlib", "_hashlib", "json"}


def _modules_loaded(*args: str) -> set[str]:
    """Every module a fresh interpreter imports for ``args``, read from -X importtime."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
            if line.startswith("import time:")}


@pytest.mark.parametrize("argv", [
    ["eval", "tests/data/example_model.yaml", "<COMP> @code = ?x", "-t", "?x"],
    ["translate", "tests/data/example_model.yaml", "<COMP> @code = ?x", "-t", "?x", "--eval"],
    ["map", "tests/data/example_model.yaml", "--out-dir", "{out}"],
], ids=["eval", "translate", "map"])
def test_one_query_commands_load_no_fuzzer_hash_or_json(argv, tmp_path):
    loaded = _modules_loaded("-m", "modalrel.cli", *(a.format(out=tmp_path) for a in argv))
    assert "modalrel.translate" in loaded
    # Whatever the bare interpreter loads (a site .pth file, say) is not the command's.
    assert loaded & NOT_FOR_ONE_QUERY <= _modules_loaded("-c", "pass")


def test_fuzz_loads_the_harness():
    assert "modalrel.harness" in _modules_loaded("-m", "modalrel.cli", "fuzz", "--help")


HARNESS_NAMES = ["CampaignSummary", "CorrespondenceReport", "GenParams", "check",
                 "gen_model", "gen_query", "run_campaign"]


def test_package_loads_the_harness_on_first_use_of_its_names():
    probe = (
        "import sys, modalrel; before = 'modalrel.harness' in sys.modules; "
        "from modalrel import GenParams; print(before, 'modalrel.harness' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), check=True)
    assert proc.stdout == "False True\n"


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_harness_names_import_from_the_package(name):
    namespace = {}
    exec(f"from modalrel import {name}", namespace)
    assert namespace[name] is getattr(modalrel.harness, name)
    assert name in modalrel.__all__


def test_star_import_binds_the_harness_names():
    namespace = {}
    exec("from modalrel import *", namespace)
    assert {name: namespace[name] for name in HARNESS_NAMES} == {
        name: getattr(modalrel.harness, name) for name in HARNESS_NAMES
    }


def test_package_has_no_other_lazy_names():
    with pytest.raises(AttributeError, match="has no attribute 'case_params'"):
        modalrel.case_params
    assert not hasattr(modalrel, "nope")


# ---------------------------------------------------------------------------
# Error classes


# One input per exported error class, through an exported entry point, with
# the exit code the command line reports for it.
RAISED_BY = {
    QuerySyntaxError: (EXIT_QUERY_ERROR, lambda model, db: parse_query("?x =")),
    KindError: (EXIT_QUERY_ERROR, lambda model, db: parse_query("code = 'b'")),
    FreeVarMismatch: (EXIT_QUERY_ERROR, lambda model, db: parse_query("?x = ?x")),
    UnknownConstant: (
        EXIT_QUERY_ERROR,
        lambda model, db: answer_direct(model, parse_query("@code = 'zz'")),
    ),
    UnknownRelation: (
        EXIT_QUERY_ERROR,
        lambda model, db: translate_query(parse_query("<NOPE> @code = 'b'"), model),
    ),
    ModelInvariantError: (EXIT_MODEL_ERROR, lambda model, db: parse_model("[]")),
    UntranslatableTerm: (
        EXIT_UNTRANSLATABLE,
        lambda model, db: translate_query(parse_query("exists %g . @%g = 'b'"), model),
    ),
    DegreeError: (
        EXIT_QUERY_ERROR,
        lambda model, db: evaluate(parse_algebra("(project (9) Obj)"), db),
    ),
}

EXPORTED_ERRORS = sorted(
    (
        value
        for value in vars(modalrel).values()
        if isinstance(value, type) and issubclass(value, ModalRelError)
        and value is not ModalRelError
    ),
    key=lambda cls: cls.__name__,
)


@pytest.mark.parametrize("error", EXPORTED_ERRORS, ids=lambda cls: cls.__name__)
def test_every_exported_error_class_can_be_raised(error, example_model, example_db):
    assert error in RAISED_BY, f"no input raises {error.__name__}"
    exit_code, raise_it = RAISED_BY[error]
    with pytest.raises(ModalRelError) as info:
        raise_it(example_model, example_db)
    assert type(info.value) is error
    assert error.exit_code == exit_code
