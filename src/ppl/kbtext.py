"""Line-based knowledge-base text format.

One declaration per line; `#` starts a comment; blank lines are ignored::

    fact: or{s1,s2,s3}
    rule r11: {} => ~s1          # defeasible
    rule w1: {a} ~> ~c           # warning
    prio: r11 > r14

Lines end at "\n", "\r\n" or "\r" only, so a comment holding any other
line break still ends at the newline.  A line that `str.strip` empties is
skipped.  Each line is read as one list of tokens (`formulas._TOKEN`):
runs of [A-Za-z0-9_], the arrows "=>" and "~>", and every other character
on its own, with only spaces and tabs between them skipped.  One table per
document holds one Atom per name, so each name is checked and hashed once,
and equal atoms of a document are the same object.

Rule ids follow atom syntax.  Parsing collects every failure as a
Diagnostic with a 1-based line and column, the column of the offending
token found by scanning its line again; serialization emits canonical
formula text, so parse -> serialize -> parse is the identity on the
canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .formulas import (Formula, FormulaSyntaxError, _is_identifier, _offset, _parse,
                       _parse_all, _tokens, format_formula)
from .kb import Arrow, Rule

_WORD = re.compile(r"[A-Za-z0-9_]")  # starts a token that is a whole [A-Za-z0-9_] run


@dataclass(frozen=True)
class Diagnostic:
    severity: str
    line: int
    col: int
    code: str
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.severity}[{self.code}]: {self.message}"


class KbSyntaxError(Exception):
    """Raised when a KB document fails to parse; carries all diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


@dataclass
class KbDocument:
    """Parsed but not yet validated knowledge base."""

    facts: list[Formula] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    priority: list[tuple[str, str]] = field(default_factory=list)


def parse_kb(text: str) -> KbDocument:
    doc = KbDocument()
    diags: list[Diagnostic] = []
    rule_lines: dict[str, int] = {}
    targets: list[tuple[int, str, int, str]] = []  # line number, line, token index, rule id
    atoms: dict = {}  # name -> its one Atom in this document

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0]
        if not line.strip():
            continue
        tokens = _tokens(line)
        try:
            word = tokens[0]
            if word == "fact":
                if tokens[1] != ":":
                    _fail("expected ':' after 'fact'", line, 1)
                doc.facts.append(_parse_all(line, tokens, 2, atoms))
            elif word == "rule":
                rule = _rule(line, tokens, atoms)
                if rule.rid in rule_lines:
                    diags.append(Diagnostic(
                        "error", lineno, 1, "duplicate-rule-id",
                        f"rule id {rule.rid!r} already declared on line {rule_lines[rule.rid]}"))
                else:
                    rule_lines[rule.rid] = lineno
                    doc.rules.append(rule)
            elif word == "prio":
                if tokens[1] != ":":
                    _fail("expected ':' after 'prio'", line, 1)
                doc.priority.append(_prio(line, tokens, lineno, targets))
            else:
                _fail("expected 'fact:', 'rule <id>:', or 'prio:'", line, 0,
                      len(word) if _WORD.match(word) else 0)
        except FormulaSyntaxError as e:
            diags.append(Diagnostic("error", lineno, e.pos + 1, "syntax", e.message))

    for lineno, line, i, rid in targets:
        if rid not in rule_lines:
            diags.append(
                Diagnostic("error", lineno, _offset(line, i) + 1, "unknown-rule-id",
                           f"priority target {rid!r} is not a declared rule")
            )

    if diags:
        raise KbSyntaxError(sorted(diags, key=lambda d: (d.line, d.col)))
    return doc


def _fail(message: str, line: str, i: int, shift: int = 0):
    """A syntax error at token i of `line`, `shift` characters into it."""
    raise FormulaSyntaxError(message, _offset(line, i) + shift)


def _rule(line, tokens, atoms):
    rid = _rule_id(line, tokens, 1, "expected a rule id after 'rule'")
    if tokens[2] != ":":
        _fail("expected ':' after the rule id", line, 2)
    if tokens[3] != "{":
        _fail("expected '{' to open the antecedent set", line, 3)
    antecedents, i = _parse(line, tokens, 4, [(tuple, [])], atoms)
    arrow = tokens[i]
    if arrow != "=>" and arrow != "~>":
        _fail("expected '=>' or '~>' after the antecedents", line, i)
    consequent = _parse_all(line, tokens, i + 1, atoms)
    return Rule(rid, antecedents, Arrow.DEFEASIBLE if arrow == "=>" else Arrow.WARNING,
                consequent)


def _prio(line, tokens, lineno, targets):
    """The pair of `prio: sup > inf`, after recording each id as a target."""
    sup = _rule_id(line, tokens, 2, "expected a rule id")
    targets.append((lineno, line, 2, sup))
    if tokens[3] != ">":
        _fail("expected '>' between rule ids", line, 3)
    inf = _rule_id(line, tokens, 4, "expected a rule id after '>'")
    targets.append((lineno, line, 4, inf))
    if tokens[5] and line[_offset(line, 4) + len(inf):].strip():
        _fail("trailing text after priority pair", line, 4, len(inf))
    return sup, inf


def _rule_id(line, tokens, i, missing):
    rid = tokens[i]
    if not _is_identifier(rid):
        _fail(f"rule id {rid!r} does not follow atom syntax" if _WORD.match(rid) else missing,
              line, i)
    return rid


def serialize_kb(doc: KbDocument) -> str:
    lines = []
    for f in doc.facts:
        lines.append(f"fact: {format_formula(f)}")
    for r in doc.rules:
        ants = ", ".join(format_formula(f) for f in r.antecedents)
        lines.append(f"rule {r.rid}: {{{ants}}} {r.arrow.value} "
                     f"{format_formula(r.consequent)}")
    for sup, inf in doc.priority:
        lines.append(f"prio: {sup} > {inf}")
    return "\n".join(lines) + ("\n" if lines else "")
