"""Command-line front door: map models, translate and evaluate queries, fuzz.

Exit codes: 0 success, 1 usage, 2 query parse/kind error, 3 model invariant
violation, 4 untranslatable query, 5 correspondence mismatch.
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import fields

import click

from .errors import ModalRelError, ModelInvariantError, UntranslatableTerm
from .harness import GenParams, run_campaign
from .kripke import KripkeModel, answer_direct, load_model
from .relalg import SCHEMA_NAMES, evaluate, render_algebra, to_tsv
from .schema import build_database
from .syntax import parse_query
from .translate import translate_query

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_QUERY_ERROR = ModalRelError.exit_code
EXIT_MODEL_ERROR = ModelInvariantError.exit_code
EXIT_UNTRANSLATABLE = UntranslatableTerm.exit_code
EXIT_MISMATCH = 5


def _read_model(path: str) -> KripkeModel:
    try:
        return load_model(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelInvariantError(f"cannot read model file {path}: {exc}") from exc


@click.group()
def cli():
    """Answer modal queries over a Kripke model, two independent ways.

    Query grammar: terms are 'quoted' object constants, ?object and
    %concept variables, bare-name concept constants, and @t for the value
    of concept t in the current state.  Formulas: t1 = t2, t1 != t2, !f,
    f & g, f | g, f -> g, <R> f, [R] f, exists ?x . f, forall %a . f,
    <lam ?x . f>(t).  Prefix operators bind tightest; quantifier bodies
    extend to the right; -> is right-associative.

    Exit codes: 0 success, 1 usage, 2 query parse/kind error, 3 model
    invariant violation, 4 untranslatable query, 5 engine mismatch.
    """


@cli.command("map")
@click.argument("model_path")
@click.option(
    "--out-dir",
    default=".",
    show_default=True,
    help="Directory for the Sta.tsv, Rel.tsv, Con.tsv, Obj.tsv files.",
)
def cmd_map(model_path: str, out_dir: str):
    """Write the four database tables derived from MODEL_PATH."""
    model = _read_model(model_path)
    db = build_database(model)
    target = pathlib.Path(out_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        for name in SCHEMA_NAMES:
            (target / f"{name}.tsv").write_text(to_tsv(db.relations[name]), encoding="utf-8")
    except OSError as exc:
        raise click.FileError(exc.filename or out_dir, hint=exc.strerror) from exc


@cli.command("translate")
@click.argument("model_path")
@click.argument("query")
@click.option("--target", "-t", multiple=True, help="Target variable, e.g. -t '?x'.")
@click.option("--eval", "evaluate_too", is_flag=True, help="Also evaluate and print TSV rows.")
def cmd_translate(model_path: str, query: str, target: tuple[str, ...], evaluate_too: bool):
    """Print the algebra translation of QUERY against MODEL_PATH."""
    model = _read_model(model_path)
    parsed = parse_query(query, list(target))
    expr = translate_query(parsed, model)
    click.echo(render_algebra(expr))
    if evaluate_too:
        db = build_database(model)
        click.echo(to_tsv(evaluate(expr, db)), nl=False)


@cli.command("eval")
@click.argument("model_path")
@click.argument("query")
@click.option("--target", "-t", multiple=True, help="Target variable, e.g. -t '?x'.")
@click.option(
    "--engine",
    type=click.Choice(["direct", "algebra", "both"]),
    default="both",
    show_default=True,
    help="Which engine answers the query; 'both' also cross-checks them.",
)
@click.option("--header", is_flag=True, help="Prepend a line of 1-based column indices.")
def cmd_eval(model_path: str, query: str, target: tuple[str, ...], engine: str, header: bool):
    """Evaluate QUERY against MODEL_PATH and print the answer as TSV."""
    model = _read_model(model_path)
    parsed = parse_query(query, list(target))
    answers = {}
    if engine in ("direct", "both"):
        answers["direct"] = answer_direct(model, parsed)
    if engine in ("algebra", "both"):
        db = build_database(model)
        answers["algebra"] = evaluate(translate_query(parsed, model), db)
    if engine == "both" and answers["direct"] != answers["algebra"]:
        click.echo("engines disagree on this query:", err=True)
        click.echo(f"  direct:  {to_tsv(answers['direct']).strip() or '(empty)'}", err=True)
        click.echo(f"  algebra: {to_tsv(answers['algebra']).strip() or '(empty)'}", err=True)
        sys.exit(EXIT_MISMATCH)
    answer = answers["direct"] if "direct" in answers else answers["algebra"]
    click.echo(to_tsv(answer, header=header), nl=False)


@cli.command("fuzz")
@click.option("--cases", default=100, show_default=True)
@click.option("--report", "report_path", default=None, help="Write a JSON report here.")
def cmd_fuzz(cases: int, report_path: str | None, **gen_params):
    """Differential campaign: random models and queries through both engines."""
    if cases < 1:
        raise click.UsageError("--cases must be at least 1")
    try:
        params = GenParams(**gen_params)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc
    summary = run_campaign(params, cases)
    click.echo(summary.render(), nl=False)
    click.echo(f"wall time: {summary.seconds:.2f}s", err=True)
    if report_path:
        try:
            pathlib.Path(report_path).write_text(summary.to_json(), encoding="utf-8")
        except OSError as exc:
            raise click.FileError(report_path, hint=exc.strerror) from exc
    if not summary.ok:
        sys.exit(EXIT_MISMATCH)


# One option per GenParams field: the field's name with dashes, its default.
cmd_fuzz.params[:0] = [
    click.Option(["--" + f.name.replace("_", "-")], default=f.default, show_default=True,
                 is_flag=isinstance(f.default, bool))
    for f in fields(GenParams)
]


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_USAGE)
    except click.Abort:
        sys.exit(EXIT_USAGE)
    except ModalRelError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exc.exit_code)
    return EXIT_OK


if __name__ == "__main__":
    main()
