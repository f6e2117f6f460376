"""Knowledge-base file parsing, diagnostics, and round-tripping."""

import random
import re

import pytest

from conftest import KB_DIR, random_formula
from ppl import Arrow, Atom, Disj, FormulaSyntaxError, Neg, parse_formula, parse_kb, serialize_kb
from ppl.kbtext import KbSyntaxError

AMBIGUITY = """\
# equal evidence up front
rule ra: {} => a
rule rna: {} => ~a
rule rb: {} => b
rule ranb: {a} => ~b
"""


class TestParsing:
    def test_ambiguity_document(self):
        doc = parse_kb(AMBIGUITY)
        assert doc.facts == []
        assert [r.rid for r in doc.rules] == ["ra", "rna", "rb", "ranb"]
        assert all(r.arrow is Arrow.DEFEASIBLE for r in doc.rules)
        assert doc.rules[3].antecedents == (Atom("a"),)
        assert doc.priority == []

    def test_empty_document(self):
        doc = parse_kb("")
        assert (doc.facts, doc.rules, doc.priority) == ([], [], [])
        assert parse_kb("# only a comment\n\n").rules == []

    def test_facts_and_priority(self):
        doc = parse_kb(
            "fact: or{a,b}\n"
            "rule r1: {a} ~> ~b\n"
            "rule r2: {} => b\n"
            "prio: r1 > r2\n"
        )
        assert doc.facts == [Disj([Atom("a"), Atom("b")])]
        assert doc.rules[0].arrow is Arrow.WARNING
        assert doc.priority == [("r1", "r2")]

    def test_trailing_comments_stripped(self):
        doc = parse_kb("fact: a  # the a fact\n")
        assert doc.facts == [Atom("a")]

    def test_kb_files_on_disk_parse(self):
        for path in sorted(KB_DIR.glob("*.ppl")):
            parse_kb(path.read_text(encoding="utf-8"))


class TestDiagnostics:
    def expect_one(self, text, code, line):
        with pytest.raises(KbSyntaxError) as exc:
            parse_kb(text)
        diags = exc.value.diagnostics
        assert [(d.code, d.line) for d in diags] == [(code, line)]
        assert diags[0].col >= 1
        return diags[0]

    def test_unknown_directive(self):
        self.expect_one("what: a\n", "syntax", 1)

    def test_bad_formula_position(self):
        d = self.expect_one("fact: or{a,\n", "syntax", 1)
        assert d.col == 12

    def test_missing_arrow(self):
        self.expect_one("rule r: {a} -> b\n", "syntax", 1)

    def test_duplicate_rule_id(self):
        self.expect_one(
            "rule r: {} => a\nrule r: {} => b\n", "duplicate-rule-id", 2
        )

    def test_unknown_priority_target(self):
        d = self.expect_one(
            "rule r9: {} => a\nprio: r9 > rX\n", "unknown-rule-id", 2
        )
        assert "rX" in d.message

    @pytest.mark.parametrize("text,col", [
        ("rule 1r: {} => a\n", 6),
        ("rule and: {} => ~a\n", 6),
        ("rule r: {} => a\nprio: 1r > r\n", 7),
        ("rule r: {} => a\nprio: r >  or\n", 12),
    ])
    def test_rule_ids_follow_atom_syntax(self, text, col):
        line = text.count("\n")
        d = self.expect_one(text, "syntax", line)
        assert d.col == col
        assert "atom syntax" in d.message

    @pytest.mark.parametrize("text,col", [
        ("rule r: {a b} => c\n", 12),
        ("rule r: {a,} => c\n", 12),
        ("rule r: {a\n", 11),
        ("rule r: {é} => c\n", 10),
    ])
    def test_antecedent_errors_are_located(self, text, col):
        assert self.expect_one(text, "syntax", 1).col == col

    def test_spaced_antecedents(self):
        doc = parse_kb("rule r: { a , ~b } => c\n")
        assert doc.rules[0].antecedents == (Atom("a"), Neg(Atom("b")))

    def test_multiple_errors_reported_together(self):
        with pytest.raises(KbSyntaxError) as exc:
            parse_kb("junk\nfact: ~\nrule r: {} => a\nprio: r > gone\n")
        assert len(exc.value.diagnostics) == 3


# Every diagnostic path of the reader, with the full text it reports:
# (document, [(line, col, code, message), ...]).
DIAGNOSTICS = [
    ("what: a\n", [(1, 5, "syntax", "expected 'fact:', 'rule <id>:', or 'prio:'")]),
    ("what : a\n", [(1, 5, "syntax", "expected 'fact:', 'rule <id>:', or 'prio:'")]),
    ("{a} => b\n", [(1, 1, "syntax", "expected 'fact:', 'rule <id>:', or 'prio:'")]),
    ("fact a\n", [(1, 6, "syntax", "expected ':' after 'fact'")]),
    ("fact\n", [(1, 5, "syntax", "expected ':' after 'fact'")]),
    ("prio r > s\n", [(1, 6, "syntax", "expected ':' after 'prio'")]),
    ("rule r {} => a\n", [(1, 8, "syntax", "expected ':' after the rule id")]),
    ("rule : {} => a\n", [(1, 6, "syntax", "expected a rule id after 'rule'")]),
    ("rule\n", [(1, 5, "syntax", "expected a rule id after 'rule'")]),
    ("rule 1r: {} => a\n", [(1, 6, "syntax", "rule id '1r' does not follow atom syntax")]),
    ("rule and: {} => ~a\n", [(1, 6, "syntax", "rule id 'and' does not follow atom syntax")]),
    ("rule or: {} => a\n", [(1, 6, "syntax", "rule id 'or' does not follow atom syntax")]),
    ("rule r: a => b\n", [(1, 9, "syntax", "expected '{' to open the antecedent set")]),
    ("rule r: {} => and a\n", [(1, 19, "syntax", "expected '{' after 'and'")]),
    ("fact: or a\n", [(1, 10, "syntax", "expected '{' after 'or'")]),
    ("fact: and\n", [(1, 10, "syntax", "expected '{' after 'and'")]),
    ("rule r: {a\n", [(1, 11, "syntax", "unterminated member list")]),
    ("fact: or{a,\n", [(1, 12, "syntax", "expected a formula")]),
    ("fact: and{a\n", [(1, 12, "syntax", "unterminated member list")]),
    ("rule r: {a b} => c\n", [(1, 12, "syntax", "expected ',' or '}', got 'b'")]),
    ("rule r: {a,} => c\n", [(1, 12, "syntax", "unexpected '}'")]),
    ("rule r: {a} -> b\n", [(1, 13, "syntax", "expected '=>' or '~>' after the antecedents")]),
    ("rule r: {a} b\n", [(1, 13, "syntax", "expected '=>' or '~>' after the antecedents")]),
    ("rule r: {a}\n", [(1, 12, "syntax", "expected '=>' or '~>' after the antecedents")]),
    ("rule r: {a} ~ > b\n", [(1, 13, "syntax", "expected '=>' or '~>' after the antecedents")]),
    ("rule r: {a} = > b\n", [(1, 13, "syntax", "expected '=>' or '~>' after the antecedents")]),
    ("rule r: {a} => ~>b\n", [(1, 17, "syntax", "unexpected '>'")]),
    ("rule r: {a => b} => c\n", [(1, 12, "syntax", "expected ',' or '}', got '='")]),
    ("fact: a => b\n", [(1, 9, "syntax", "unexpected '=' after formula")]),
    ("fact: a ~> b\n", [(1, 9, "syntax", "unexpected '~' after formula")]),
    ("fact: ~>a\n", [(1, 8, "syntax", "unexpected '>'")]),
    ("fact: a b\n", [(1, 9, "syntax", "unexpected 'b' after formula")]),
    ("rule r: {} => a b\n", [(1, 17, "syntax", "unexpected 'b' after formula")]),
    ("rule r: {} => a\nrule s: {} => b\nprio: r > s t\n",
     [(3, 12, "syntax", "trailing text after priority pair")]),
    ("rule r: {} => a\nrule s: {} => b\nprio: r > s >\n",
     [(3, 12, "syntax", "trailing text after priority pair")]),
    ("rule r: {} => a\nprio: r s\n", [(2, 9, "syntax", "expected '>' between rule ids")]),
    ("rule r: {} => a\nprio: > r\n", [(2, 7, "syntax", "expected a rule id")]),
    ("rule r: {} => a\nprio: r >\n", [(2, 10, "syntax", "expected a rule id after '>'")]),
    ("rule r: {} => a\nprio: 1r > r\n",
     [(2, 7, "syntax", "rule id '1r' does not follow atom syntax")]),
    ("rule r: {} => a\nprio: r >  or\n",
     [(2, 12, "syntax", "rule id 'or' does not follow atom syntax")]),
    ("rule r: {} => a\nprio: r => r\n", [(2, 9, "syntax", "expected '>' between rule ids")]),
    ("rule r: {} => a\nrule r: {} => b\n",
     [(2, 1, "duplicate-rule-id", "rule id 'r' already declared on line 1")]),
    ("rule r9: {} => a\nprio: r9 > rX\n",
     [(2, 12, "unknown-rule-id", "priority target 'rX' is not a declared rule")]),
    ("rule r: {é} => c\n", [(1, 10, "syntax", "unexpected 'é'")]),
    ("fact: é\n", [(1, 7, "syntax", "unexpected 'é'")]),
    ("fact: aé\n", [(1, 8, "syntax", "unexpected 'é' after formula")]),
    ("rule é: {} => a\n", [(1, 6, "syntax", "expected a rule id after 'rule'")]),
    ("é\n", [(1, 1, "syntax", "expected 'fact:', 'rule <id>:', or 'prio:'")]),
    ("fact:\n", [(1, 6, "syntax", "expected a formula")]),
    ("fact:   \n", [(1, 9, "syntax", "expected a formula")]),
    ("rule r: {} =>\n", [(1, 14, "syntax", "expected a formula")]),
    ("fact: ~\n", [(1, 8, "syntax", "expected a formula")]),
    ("fact: 1a\n", [(1, 7, "syntax", "unexpected '1'")]),
    ("fact: or{a,1b}\n", [(1, 12, "syntax", "unexpected '1'")]),
    ("fact: \xa0a\n", [(1, 7, "syntax", "unexpected '\\xa0'")]),
    ("fact: and{a}}\n", [(1, 13, "syntax", "unexpected '}' after formula")]),
    ("fact: or{}}\n", [(1, 11, "syntax", "unexpected '}' after formula")]),
    ("fact: ,\n", [(1, 7, "syntax", "unexpected ','")]),
    ("junk\nfact: ~\nrule r: {} => a\nprio: r > gone\n",
     [(1, 5, "syntax", "expected 'fact:', 'rule <id>:', or 'prio:'"),
      (2, 8, "syntax", "expected a formula"),
      (4, 11, "unknown-rule-id", "priority target 'gone' is not a declared rule")]),
    ("prio: x > y\nprio: x > y\n",
     [(1, 7, "unknown-rule-id", "priority target 'x' is not a declared rule"),
      (1, 11, "unknown-rule-id", "priority target 'y' is not a declared rule"),
      (2, 7, "unknown-rule-id", "priority target 'x' is not a declared rule"),
      (2, 11, "unknown-rule-id", "priority target 'y' is not a declared rule")]),
    ("prio: rX\nrule r: {} => a\n",
     [(1, 7, "unknown-rule-id", "priority target 'rX' is not a declared rule"),
      (1, 9, "syntax", "expected '>' between rule ids")]),
    ("prio: rX > \nfact: a b c\nrule r: {} => a\nrule r: {} => a\n",
     [(1, 7, "unknown-rule-id", "priority target 'rX' is not a declared rule"),
      (1, 12, "syntax", "expected a rule id after '>'"),
      (2, 9, "syntax", "unexpected 'b' after formula"),
      (4, 1, "duplicate-rule-id", "rule id 'r' already declared on line 3")]),
    ("rule r: {} => a\nprio: gone > r z\n",
     [(2, 7, "unknown-rule-id", "priority target 'gone' is not a declared rule"),
      (2, 15, "syntax", "trailing text after priority pair")]),
]


class TestDiagnosticTable:
    @pytest.mark.parametrize("text,expected", DIAGNOSTICS)
    def test_full_text(self, text, expected):
        with pytest.raises(KbSyntaxError) as exc:
            parse_kb(text)
        assert [(d.line, d.col, d.code, d.message) for d in exc.value.diagnostics] == expected


class TestLines:
    @pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c",
                                      "\x1c", "\x1d", "\x1e"])
    def test_lines_end_only_at_newlines(self, char):
        doc = parse_kb(f"rule r: {{}} => a  # note{char}more\nfact: b\n")
        assert ([r.rid for r in doc.rules], doc.facts) == (["r"], [Atom("b")])
        with pytest.raises(KbSyntaxError) as exc:
            parse_kb(f"# x{char}y\nfact: a{char}\n")
        assert [(d.line, d.col, d.message) for d in exc.value.diagnostics] == [
            (2, 8, f"unexpected {char!r} after formula")]

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_endings(self, ending):
        text = "fact: a\nrule r: {} => b  # c\n\nrule s: {a} ~> ~b\nprio: r > s\n"
        doc, again = parse_kb(text), parse_kb(text.replace("\n", ending))
        assert (again.facts, again.rules, again.priority) == (
            doc.facts, doc.rules, doc.priority)
        with pytest.raises(KbSyntaxError) as exc:
            parse_kb(text.replace("\n", ending) + f"fact: ~{ending}")
        assert [(d.line, d.col) for d in exc.value.diagnostics] == [(6, 8)]

    def test_other_blanks_by_strip(self):
        # lines of characters that str.strip() removes are skipped, and so is
        # such text after a priority pair
        doc = parse_kb("\xa0\u3000\nrule r: {} => a\nrule s: {} => b\nprio: r > s\xa0\u2003\n")
        assert doc.priority == [("r", "s")]


def _spaced(rng, text):
    """`text` with a random run of spaces and tabs before, between and after its tokens."""
    tokens = re.findall(r"[A-Za-z0-9_]+|=>|.", text)
    return "".join(rng.choice(["", "", " ", "\t", "  ", " \t "]) + t for t in tokens + [""])


class TestTokens:
    def test_one_atom_per_name(self):
        text = "rule r0: {} => a0\n" + "".join(
            f"rule r{i}: {{a{i - 1}}} => a{i}\n" for i in range(1, 50))
        doc = parse_kb("fact: or{a0,~a1}\n" + text)
        for prev, rule in zip(doc.rules, doc.rules[1:]):
            assert rule.antecedents[0] is prev.consequent
        a0, not_a1 = doc.facts[0].members
        assert a0 is doc.rules[0].consequent and not_a1.inner is doc.rules[1].consequent

    def test_random_blanks_between_tokens(self):
        rng = random.Random(19)
        for _ in range(300):
            f = random_formula(rng, 4)
            text = _spaced(rng, str(f))
            assert parse_formula(text) == f
            doc = parse_kb(f"fact:{text}\nrule r:{_spaced(rng, '{' + str(f) + '}=>a')}\n")
            assert (doc.facts, doc.rules[0].antecedents) == ([f], (f,))

    def test_stray_characters_are_located(self):
        rng = random.Random(23)
        for _ in range(300):
            text = _spaced(rng, str(random_formula(rng, 4)))
            pos = rng.randint(0, len(text))
            bad = text[:pos] + rng.choice(["é", "=", ">", "\x0c"]) + text[pos:]
            with pytest.raises(FormulaSyntaxError) as exc:
                parse_formula(bad)
            assert exc.value.pos == pos, bad
            with pytest.raises(KbSyntaxError) as exc:
                parse_kb(f"fact: {bad}\n")
            assert [d.col for d in exc.value.diagnostics] == [pos + 7], bad


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        doc = parse_kb(AMBIGUITY)
        text = serialize_kb(doc)
        again = parse_kb(text)
        assert again.facts == doc.facts
        assert again.rules == doc.rules
        assert again.priority == doc.priority
        assert serialize_kb(again) == text

    def test_priority_lines_round_trip(self):
        text = ("rule r1: {} => a\nrule r2: {} => ~a\nrule r3: {a} => b\n"
                "prio: r2 > r1\nprio: r1 > r3\n")
        doc = parse_kb(text)
        assert serialize_kb(doc) == text
        assert parse_kb(serialize_kb(doc)).priority == [("r2", "r1"), ("r1", "r3")]

    def test_round_trip_random_documents(self):
        rng = random.Random(61)
        lits = [Atom(a) for a in "abc"] + [Neg(Atom(a)) for a in "abc"]
        for _ in range(50):
            lines = []
            for i in range(rng.randint(0, 3)):
                lines.append(f"fact: {rng.choice(lits)}")
            for i in range(rng.randint(0, 4)):
                arrow = rng.choice(["=>", "~>"])
                ants = ",".join(str(rng.choice(lits))
                                for _ in range(rng.randint(0, 2)))
                lines.append(f"rule r{i}: {{{ants}}} {arrow} {rng.choice(lits)}")
            doc = parse_kb("\n".join(lines) + "\n")
            again = parse_kb(serialize_kb(doc))
            assert (again.facts, again.rules, again.priority) == (
                doc.facts, doc.rules, doc.priority
            )

    def test_kb_files_round_trip(self):
        for path in sorted(KB_DIR.glob("*.ppl")):
            doc = parse_kb(path.read_text(encoding="utf-8"))
            again = parse_kb(serialize_kb(doc))
            assert (again.facts, again.rules, again.priority) == (
                doc.facts, doc.rules, doc.priority
            )
