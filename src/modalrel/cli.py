"""Answer modal queries over a Kripke model, two independent ways.

Query grammar: terms are 'quoted' object constants, ?object and %concept
variables, bare-name concept constants, and @t for the value of concept t in
the current state.  Formulas: t1 = t2, t1 != t2, !f, f & g, f | g, f -> g,
<R> f, [R] f, exists ?x . f, forall %a . f, <lam ?x . f>(t).  Prefix
operators bind tightest; quantifier bodies extend to the right; -> is
right-associative.

Exit codes: 0 success, 1 usage, 2 query parse/kind error, 3 model invariant
violation, 4 untranslatable query, 5 correspondence mismatch.
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from typing import Callable, NoReturn

from .errors import ModalRelError, ModelInvariantError, UntranslatableTerm
from .kripke import answer_direct, load_model
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


def _exit(code: int, line: str) -> NoReturn:
    sys.stderr.write(line + "\n")
    raise SystemExit(code)


def cmd_map(args: argparse.Namespace) -> None:
    """Write the four database tables derived from MODEL_PATH."""
    db = build_database(load_model(args.model_path))
    target = pathlib.Path(args.out_dir)
    try:
        target.mkdir(parents=True, exist_ok=True)
        for name in SCHEMA_NAMES:
            (target / f"{name}.tsv").write_text(to_tsv(db.relations[name]), encoding="utf-8")
    except OSError as exc:
        _exit(EXIT_USAGE, f"Error: {exc}")


def cmd_translate(args: argparse.Namespace) -> None:
    """Print the algebra translation of QUERY against MODEL_PATH."""
    model = load_model(args.model_path)
    expr = translate_query(parse_query(args.query, args.target), model)
    sys.stdout.write(render_algebra(expr) + "\n")
    if args.eval:
        sys.stdout.write(to_tsv(evaluate(expr, build_database(model))))


def cmd_eval(args: argparse.Namespace) -> None:
    """Evaluate QUERY against MODEL_PATH and print the answer as TSV."""
    model = load_model(args.model_path)
    parsed = parse_query(args.query, args.target)
    answers = {}
    if args.engine in ("direct", "both"):
        answers["direct"] = answer_direct(model, parsed)
    if args.engine in ("algebra", "both"):
        answers["algebra"] = evaluate(translate_query(parsed, model), build_database(model))
    if args.engine == "both" and answers["direct"] != answers["algebra"]:
        _exit(EXIT_MISMATCH, "engines disagree on this query:\n"
              f"  direct:  {to_tsv(answers['direct']).strip() or '(empty)'}\n"
              f"  algebra: {to_tsv(answers['algebra']).strip() or '(empty)'}")
    answer = answers["direct"] if "direct" in answers else answers["algebra"]
    sys.stdout.write(to_tsv(answer, header=args.header))


def cmd_fuzz(args: argparse.Namespace) -> None:
    """Differential campaign: random models and queries through both engines."""
    from dataclasses import fields

    from .harness import GenParams, run_campaign

    if args.cases < 1:
        _exit(EXIT_USAGE, "Error: --cases must be at least 1")
    try:
        params = GenParams(**{f.name: getattr(args, f.name) for f in fields(GenParams)})
    except ValueError as exc:
        _exit(EXIT_USAGE, f"Error: {exc}")
    summary = run_campaign(params, args.cases)
    sys.stdout.write(summary.render())
    sys.stderr.write(f"wall time: {summary.seconds:.2f}s\n")
    if args.report:
        try:
            pathlib.Path(args.report).write_text(summary.to_json(), encoding="utf-8")
        except OSError as exc:
            _exit(EXIT_USAGE, f"Error: {exc}")
    if not summary.ok:
        raise SystemExit(EXIT_MISMATCH)


class _Parser(argparse.ArgumentParser):
    def __init__(self, add_options: Callable[[_Parser], None] | None = None, **kwargs):
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")
        self._add_options = add_options

    def parse_known_args(self, args=None, namespace=None):
        # A command's options may be added only when that command parses, so
        # that a command imports only the modules it runs.  argparse calls
        # this on the chosen subparser.
        if self._add_options is not None:
            add, self._add_options = self._add_options, None
            add(self)
        return super().parse_known_args(args, namespace)

    def error(self, message: str) -> NoReturn:
        # Exit code 2, argparse's own, is the query errors' here.
        self.print_usage(sys.stderr)
        _exit(EXIT_USAGE, f"Error: {message}")


def _fuzz_options(sub: _Parser) -> None:
    """One option per ``GenParams`` field, then the campaign's own two."""
    from dataclasses import fields

    from .harness import GenParams

    for f in fields(GenParams):
        kind = {"action": "store_true"} if isinstance(f.default, bool) else {"type": int}
        sub.add_argument("--" + f.name.replace("_", "-"), default=f.default,
                         help="(default: %(default)s)", **kind)
    sub.add_argument("--cases", type=int, default=100, help="(default: %(default)s)")
    sub.add_argument("--report", help="Write a JSON report here.")


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit codes. Writes go to the current sys.stdout."""
    parser = _Parser(prog="modalrel", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, *positionals: str, **kwargs) -> _Parser:
        sub = commands.add_parser(name, help=run.__doc__, description=run.__doc__, **kwargs)
        sub.set_defaults(run=run)
        for positional in positionals:
            sub.add_argument(positional.lower(), metavar=positional)
        if "QUERY" in positionals:
            sub.add_argument("--target", "-t", action="append", default=[],
                             help="Target variable, e.g. -t '?x'.")
        return sub

    sub = command("map", cmd_map, "MODEL_PATH")
    sub.add_argument("--out-dir", default=".",
                     help="Directory for the four .tsv files (default: %(default)s).")
    sub = command("translate", cmd_translate, "MODEL_PATH", "QUERY")
    sub.add_argument("--eval", action="store_true", help="Also evaluate and print TSV rows.")
    sub = command("eval", cmd_eval, "MODEL_PATH", "QUERY")
    sub.add_argument("--engine", choices=["direct", "algebra", "both"], default="both",
                     help="Engine to use; 'both' also cross-checks them (default: %(default)s).")
    sub.add_argument("--header", action="store_true", help="Prepend 1-based column indices.")
    command("fuzz", cmd_fuzz, add_options=_fuzz_options)

    args = parser.parse_args(argv)
    try:
        args.run(args)
        sys.stdout.flush()
    except ModalRelError as exc:
        _exit(exc.exit_code, f"error: {exc}")
    except KeyboardInterrupt:
        _exit(EXIT_USAGE, "")
    except OSError as exc:
        # Standard output failed (closed pipe, full disk): quiet the flush at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _exit(EXIT_USAGE, f"Error: {exc}")
    return EXIT_OK


if __name__ == "__main__":
    main()
