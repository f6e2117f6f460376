"""Command-line front end.

    ppl check <file> [--max-atoms N]
    ppl query <file> --alg <tag|all> "<formula>" [--json] [--max-atoms N]
    ppl tree  <file> --alg <tag> "<formula>" --format json|dot [--max-atoms N]

Exit codes: 0 = proved (or valid, or output produced), 1 = not proved,
2 = usage, parse, or validation error, or any other failure.  `query --alg
all` reports every algorithm and exits 0 unless an error occurs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from .engine import (
    ALG_ORDER,
    Alg,
    evaluation_tree,
    tree_dot_pieces,
    tree_json,  # noqa: F401  not called here; perfbench's tracer test looks it up
    tree_json_pieces,
    truth_value,
)
from .formulas import (
    DEFAULT_MAX_ATOMS,
    AtomLimitError,
    FormulaSyntaxError,
    format_formula,
    parse_formula,
)
from .kb import Arrow, KbValidationError, validate_description
from .kbtext import KbSyntaxError, parse_kb

_ALG_TAGS = [a.value for a in ALG_ORDER]


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.run(args)
        if sys.stdout is sys.__stdout__:
            sys.stdout.flush()  # a reader that closed early shows here, not at exit
        return code
    except BrokenPipeError:  # the reader took what it wanted: nothing to report
        if sys.stdout is sys.__stdout__:
            # the interpreter flushes stdout at exit, which would raise again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except _CliError as e:
        print(str(e), file=sys.stderr)
        return 2
    except AtomLimitError as e:  # validation maps its own to error[validation]
        print(f"ppl: error[atom-limit]: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # exit 1 must only ever mean "not proved"
        print(f"ppl: error[{type(e).__name__}]: {e}", file=sys.stderr)
        return 2


class _CliError(Exception):
    pass


@cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by every call."""
    parser = argparse.ArgumentParser(
        prog="ppl", description="Plausible-logic reasoning over rule files."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate a knowledge base and summarize it")
    check.add_argument("file")
    _common(check)
    check.set_defaults(run=_cmd_check)

    query = sub.add_parser("query", help="prove a formula under one or all algorithms")
    query.add_argument("file")
    query.add_argument("formula")
    query.add_argument("--alg", required=True, choices=_ALG_TAGS + ["all"])
    query.add_argument("--json", action="store_true", dest="as_json")
    _common(query)
    query.set_defaults(run=_cmd_query)

    tree = sub.add_parser("tree", help="export the evaluation tree of a query")
    tree.add_argument("file")
    tree.add_argument("formula")
    tree.add_argument("--alg", required=True, choices=_ALG_TAGS)
    tree.add_argument("--format", required=True, choices=["json", "dot"])
    _common(tree)
    tree.set_defaults(run=_cmd_tree)

    return parser


def _atom_limit(text: str) -> int:
    """A `--max-atoms` value: an int, 0 or more."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be 0 or more, not {n}")
    return n


def _common(sub):
    sub.add_argument("--max-atoms", type=_atom_limit, default=DEFAULT_MAX_ATOMS,
                     metavar="N", help="atoms a formula may have where its clause form is "
                     "enumerated: each fact at validation, and at query time only a disjunction "
                     "with a member that is not a literal (default %(default)s)")


def _load(args):
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as e:
        raise _CliError(f"ppl: cannot read {args.file}: {e.strerror}")
    except UnicodeDecodeError:
        raise _CliError(f"{args.file}: error[encoding]: input must be UTF-8")
    try:
        doc = parse_kb(text)
    except KbSyntaxError as e:
        raise _CliError(
            "\n".join(f"{args.file}:{d}" for d in e.diagnostics)
        )
    try:
        return validate_description(doc.facts, doc.rules, doc.priority,
                                    max_atoms=args.max_atoms)
    except (KbValidationError, AtomLimitError) as e:
        raise _CliError(f"{args.file}: error[validation]: {e}")


def _parse_query_formula(args):
    try:
        return parse_formula(args.formula)
    except FormulaSyntaxError as e:
        raise _CliError(f"formula:1:{e.pos + 1}: error[syntax]: {e.message}")


def _cmd_check(args) -> int:
    desc = _load(args)
    print(f"axioms ({len(desc.axioms)}):")
    for f in desc.axioms:
        print(f"  {format_formula(f)}")
    for arrow in Arrow:  # strict, defeasible, warning
        group = [r for r in desc.rules if r.arrow is arrow]
        print(f"{arrow.name.lower()} rules ({len(group)}):")
        for r in group:
            marker = "  (axiom rule)" if r.rid == desc.rse_id else ""
            print(f"  {r}{marker}")
    print(f"priority pairs ({len(desc.priority)}):")
    for sup, inf in sorted(desc.priority):
        print(f"  {sup} > {inf}")
    print(f"total rules: {len(desc.rules)}")
    return 0


def _cmd_query(args) -> int:
    desc = _load(args)
    f = _parse_query_formula(args)
    algs = list(ALG_ORDER) if args.alg == "all" else [Alg(args.alg)]
    results = []
    for alg in algs:
        tv = truth_value(desc, alg, f).value
        results.append({"alg": alg.value, "proofValue": 1 if tv in "ta" else -1,
                        "truthValue": tv})
    if args.as_json:
        print(json.dumps({"formula": format_formula(f), "results": results},
                         indent=2, sort_keys=True))
    else:
        print(format_formula(f))
        for row in results:
            sign = "+1" if row["proofValue"] > 0 else "-1"
            print(f"  {row['alg']:<7} {sign}  {row['truthValue']}")
    if args.alg == "all":
        return 0
    return 0 if results[0]["proofValue"] > 0 else 1


def _cmd_tree(args) -> int:
    desc = _load(args)
    f = _parse_query_formula(args)
    root = evaluation_tree(desc, Alg(args.alg), f)
    if args.format == "json":
        _write(chain(tree_json_pieces(root), ["\n"]))
    else:
        _write(tree_dot_pieces(root))
    return 0


def _write(chunks) -> None:
    """Write a tree writer's chunks to stdout as they come: a tree's text can
    be far larger than its DAG, so it is never joined whole."""
    for chunk in chunks:
        sys.stdout.write(chunk)


if __name__ == "__main__":
    sys.exit(main())
