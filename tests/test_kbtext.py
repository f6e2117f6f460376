"""Knowledge-base file parsing, diagnostics, and round-tripping."""

import random

import pytest

from conftest import KB_DIR
from ppl import Arrow, Atom, Disj, Neg, parse_kb, serialize_kb
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


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self):
        doc = parse_kb(AMBIGUITY)
        text = serialize_kb(doc)
        again = parse_kb(text)
        assert again.facts == doc.facts
        assert again.rules == doc.rules
        assert again.priority == doc.priority
        assert serialize_kb(again) == text

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
