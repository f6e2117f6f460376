"""Line-based knowledge-base text format.

One declaration per line; `#` starts a comment; blank lines are ignored::

    fact: or{s1,s2,s3}
    rule r11: {} => ~s1          # defeasible
    rule w1: {a} ~> ~c           # warning
    prio: r11 > r14

Rule ids follow atom syntax.  Parsing collects every failure as a
Diagnostic with a 1-based line and column; serialization emits canonical
formula text, so parse -> serialize -> parse is the identity on the
canonical form.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .formulas import (Formula, FormulaSyntaxError, _is_identifier, _parse_member_list,
                       _skip_ws, format_formula, parse_formula_at)
from .kb import Arrow, Rule

_WORD = re.compile(r"[A-Za-z0-9_]*")


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
    prio_lines: list[tuple[int, int, str]] = []  # line, col, rule id

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            _parse_line(line, lineno, doc, rule_lines, prio_lines)
        except _LineError as e:
            diags.append(Diagnostic("error", lineno, e.col, e.code, e.message))

    for lineno, col, rid in prio_lines:
        if rid not in rule_lines:
            diags.append(
                Diagnostic("error", lineno, col, "unknown-rule-id",
                           f"priority target {rid!r} is not a declared rule")
            )

    if diags:
        raise KbSyntaxError(sorted(diags, key=lambda d: (d.line, d.col)))
    return doc


class _LineError(Exception):
    def __init__(self, code: str, message: str, col: int):
        self.code = code
        self.message = message
        self.col = col


def _fail(code: str, message: str, pos: int):
    raise _LineError(code, message, pos + 1)  # columns are 1-based


def _parse_line(line, lineno, doc, rule_lines, prio_lines):
    pos = _skip_ws(line, 0)
    word, pos = _word(line, pos)
    if word == "fact":
        pos = _expect(line, pos, ":", "expected ':' after 'fact'")
        doc.facts.append(_formula(line, pos))
    elif word == "rule":
        _rule_line(line, pos, lineno, doc, rule_lines)
    elif word == "prio":
        pos = _expect(line, pos, ":", "expected ':' after 'prio'")
        _prio_line(line, pos, lineno, doc, prio_lines)
    else:
        _fail("syntax", "expected 'fact:', 'rule <id>:', or 'prio:'", pos)


def _rule_line(line, pos, lineno, doc, rule_lines):
    rid, _, pos = _rule_id(line, pos, "expected a rule id after 'rule'")
    pos = _expect(line, pos, ":", "expected ':' after the rule id")
    pos = _expect(line, pos, "{", "expected '{' to open the antecedent set")
    antecedents, pos = _parsed(_parse_member_list, line, pos)
    pos = _skip_ws(line, pos)
    if line.startswith("=>", pos):
        arrow = Arrow.DEFEASIBLE
    elif line.startswith("~>", pos):
        arrow = Arrow.WARNING
    else:
        _fail("syntax", "expected '=>' or '~>' after the antecedents", pos)
    consequent = _formula(line, pos + 2)
    if rid in rule_lines:
        _fail("duplicate-rule-id",
              f"rule id {rid!r} already declared on line {rule_lines[rid]}", 0)
    rule_lines[rid] = lineno
    doc.rules.append(Rule(rid, tuple(antecedents), arrow, consequent))


def _prio_line(line, pos, lineno, doc, prio_lines):
    sup, start, end = _rule_id(line, pos, "expected a rule id")
    prio_lines.append((lineno, start + 1, sup))
    pos = _expect(line, end, ">", "expected '>' between rule ids")
    inf, start, end = _rule_id(line, pos, "expected a rule id after '>'")
    prio_lines.append((lineno, start + 1, inf))
    if line[end:].strip():
        _fail("syntax", "trailing text after priority pair", end)
    doc.priority.append((sup, inf))


def _rule_id(line, pos, missing):
    """The rule id after `pos`, with its start and end positions."""
    start = _skip_ws(line, pos)
    rid, end = _word(line, start)
    if not rid:
        _fail("syntax", missing, start)
    if not _is_identifier(rid):
        _fail("syntax", f"rule id {rid!r} does not follow atom syntax", start)
    return rid, start, end


def _formula(line, pos):
    """The formula that fills the line from `pos`."""
    f, pos = _parsed(parse_formula_at, line, pos)
    pos = _skip_ws(line, pos)
    if pos != len(line):
        _fail("syntax", f"unexpected {line[pos]!r} after formula", pos)
    return f


def _parsed(parse, line, pos):
    """Run a formula-grammar parser, reporting its failure as a diagnostic."""
    try:
        return parse(line, pos)
    except FormulaSyntaxError as e:
        _fail("syntax", e.message, e.pos)


def _word(line, pos):
    m = _WORD.match(line, pos)
    return m[0], m.end()


def _expect(line, pos, char, message):
    pos = _skip_ws(line, pos)
    if not line.startswith(char, pos):
        _fail("syntax", message, pos)
    return pos + 1


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
