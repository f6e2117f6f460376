"""Axiom construction, strict-rule synthesis, validation, and rule indexing."""

import random
from dataclasses import FrozenInstanceError, fields
from itertools import combinations

import pytest

from conftest import (
    KB_DIR,
    assert_facts_and_support,
    desc_ambiguity,
    desc_lottery3,
    desc_plausible_default,
    desc_rule_chain,
    lottery_facts,
    make_random_theory,
    make_ranked_theory,
    make_wide_theory,
    probe_formulas,
    wide_implications_kb,
)
from ppl import (
    ALG_ORDER,
    FALSUM,
    VERUM,
    Alg,
    Arrow,
    Atom,
    Conj,
    CyclicPriorityError,
    Disj,
    DuplicateRuleIdError,
    Lit,
    Neg,
    PlausibleDescription,
    PriorityOverRseError,
    Rule,
    StrictRuleRejectedError,
    TruthValue,
    UnknownRuleIdError,
    atoms,
    build_axioms,
    build_strict_rules,
    clause_rules,
    clauses_of,
    entails,
    parse_kb,
    resolution_closure,
    satisfiable,
    truth_value,
    validate_description,
)
from ppl import classical
from ppl.classical import core_clauses
from ppl.formulas import (FormulaClass, classify, complement, conj, disj, evaluate,
                          format_formula, is_literal, lits)
from ppl.kb import _components

A, B, C = Atom("a"), Atom("b"), Atom("c")
S1, S2, S3 = Atom("s1"), Atom("s2"), Atom("s3")


def sig(antecedents, arrow, consequent):
    return (frozenset(antecedents), arrow, consequent)


def sigs(rules):
    return {r.signature for r in rules}


class TestBuildAxioms:
    def test_lottery_axioms(self):
        ax = set(validate_description(lottery_facts(3), []).axioms)
        assert ax == {
            Disj([S1, S2, S3]),
            Disj([Neg(S1), Neg(S2)]),
            Disj([Neg(S1), Neg(S3)]),
            Disj([Neg(S2), Neg(S3)]),
        }

    def test_no_facts_no_axioms(self):
        assert build_axioms([]) == frozenset()

    def test_contaminated_facts_are_filtered(self):
        ax = validate_description([A, Neg(A), B], []).axioms
        assert ax == (B,)

    def test_output_properties_on_random_facts(self):
        rng = random.Random(41)
        for _ in range(120):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            ax = validate_description(facts, []).axioms
            assert satisfiable(ax)
            for f in ax:
                assert classify(f) is FormulaClass.CONTINGENT
                # simplified: a literal, or a clause of two or more literals
                from ppl.formulas import is_clause

                assert is_literal(f) or (is_clause(f) and len(f.members) >= 2)

    def test_equals_the_closure_pipeline(self):
        # core(Res(sat(clauses))), with err read off the exhaustive closure
        rng = random.Random(43)
        cases = [parse_kb(p.read_text(encoding="utf-8")).facts
                 for p in sorted(KB_DIR.glob("*.ppl"))]
        cases += [[_random_formula(rng, 2) for _ in range(rng.randint(0, 4))]
                  for _ in range(150)]
        conflicting = 0
        for facts in cases:
            cs = clauses_of(facts)
            units = {next(iter(c)) for c in resolution_closure(cs) if len(c) == 1}
            bad = {l for l in units if l.complement() in units}
            conflicting += bool(bad)
            kept = {c for c in cs if c and not (c & bad)}
            assert build_axioms(facts) == core_clauses(resolution_closure(kept)), facts
        assert conflicting > 20

    @pytest.mark.parametrize("n", [6, 8])
    def test_lottery_axioms_are_the_prime_implicates(self, n):
        tickets = [Atom(f"s{i}") for i in range(1, n + 1)]
        desc = validate_description(lottery_facts(n), [])
        expected = {Disj(tickets)} | {
            Disj([Neg(si), Neg(sj)]) for si, sj in combinations(tickets, 2)}
        assert len(desc.axiom_clauses) == n * (n - 1) // 2 + 1
        assert set(desc.axioms) == expected


def _count_calls(monkeypatch, *names):
    """Count the calls of the named `classical` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(classical, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(classical, name, counted)
    return calls


def _record_scans(monkeypatch):
    """The formulas that `PlausibleDescription._supported` scans."""
    scanned = []

    def recorded(self, f, *rest, _supported=PlausibleDescription._supported):
        scanned.append(f)
        return _supported(self, f, *rest)

    monkeypatch.setattr(PlausibleDescription, "_supported", recorded)
    return scanned


class TestOneSaturation:
    """Validation saturates the clause form once, twice for conflicting facts."""

    @pytest.fixture
    def calls(self, monkeypatch):
        return _count_calls(monkeypatch, "saturate", "resolution_closure")

    def test_satisfiable_facts_saturate_once(self, calls):
        doc = parse_kb((KB_DIR / "lottery4.ppl").read_text(encoding="utf-8"))
        validate_description(doc.facts, doc.rules, doc.priority)
        assert calls == {"saturate": 1, "resolution_closure": 0}
        for n in (6, 40):
            calls["saturate"] = 0
            p = [Atom(f"p{i}") for i in range(n + 1)]
            chain = [Disj([Neg(p[i]), p[i + 1]]) for i in range(n)]
            desc = validate_description(chain, [Rule("r", (), Arrow.DEFEASIBLE, p[0])])
            assert calls == {"saturate": 1, "resolution_closure": 0}
            # every p_i -> p_j, i < j: C(7,2) = 21 and C(41,2) = 820 axioms
            assert len(desc.axiom_clauses) == {6: 21, 40: 820}[n]
            assert desc.axiom_clauses == {frozenset({Lit(f"p{i}", True), Lit(f"p{j}", False)})
                                          for i, j in combinations(range(n + 1), 2)}

    def test_conflicting_facts_saturate_twice(self, calls):
        desc = validate_description([A, Neg(A), B], [])
        assert desc.axioms == (B,)
        assert calls == {"saturate": 2, "resolution_closure": 0}


def _random_formula(rng, depth):
    roll = rng.random()
    if depth == 0 or roll < 0.4:
        a = Atom(rng.choice("abc"))
        return Neg(a) if rng.random() < 0.5 else a
    if roll < 0.6:
        return Neg(_random_formula(rng, depth - 1))
    members = [_random_formula(rng, depth - 1) for _ in range(rng.randint(0, 3))]
    return Conj(members) if rng.random() < 0.5 else Disj(members)


class TestClauseRules:
    def test_three_literal_clause_yields_seven_rules(self):
        got = sigs(clause_rules(Disj([A, B, C])))
        assert got == {
            sig((), Arrow.STRICT, Disj([A, B, C])),
            sig((Conj([Neg(B), Neg(C)]),), Arrow.STRICT, A),
            sig((Conj([Neg(A), Neg(C)]),), Arrow.STRICT, B),
            sig((Conj([Neg(A), Neg(B)]),), Arrow.STRICT, C),
            sig((Neg(A),), Arrow.STRICT, Disj([B, C])),
            sig((Neg(B),), Arrow.STRICT, Disj([A, C])),
            sig((Neg(C),), Arrow.STRICT, Disj([A, B])),
        }

    def test_literal_clause_yields_one_rule(self):
        assert sigs(clause_rules(A)) == {sig((), Arrow.STRICT, A)}

    def test_two_literal_clause_yields_three_rules(self):
        got = sigs(clause_rules(Disj([A, B])))
        assert got == {
            sig((), Arrow.STRICT, Disj([A, B])),
            sig((Neg(A),), Arrow.STRICT, B),
            sig((Neg(B),), Arrow.STRICT, A),
        }

    def test_rule_count_is_exponential(self):
        wide = Disj([A, B, C, Atom("d")])
        assert len(clause_rules(wide)) == 2 ** 4 - 1

    def test_rejects_non_contingent(self):
        # a tautology, a conjunction, and the falsum or{}
        for bad in (Disj([A, Neg(A)]), Conj([A, B]), Disj([])):
            with pytest.raises(ValueError):
                clause_rules(bad)
            for axioms in ([bad], [A, bad]):
                with pytest.raises(ValueError):
                    build_strict_rules(axioms)

    def test_is_the_expansion_of_one_axiom(self):
        for c in (A, Neg(B), Disj([A, B]), Disj([A, Neg(B), C]), Disj([A])):
            assert clause_rules(c) == frozenset(build_strict_rules([c]))


class TestBuildStrictRules:
    def test_lottery_strict_rules(self):
        ax = validate_description(lottery_facts(3), []).axioms
        got = sigs(build_strict_rules(ax))
        big = Disj([S1, S2, S3])
        expected = {
            sig((), Arrow.STRICT,
                Conj([big, Disj([Neg(S1), Neg(S2)]), Disj([Neg(S1), Neg(S3)]),
                      Disj([Neg(S2), Neg(S3)])])),
            sig((Neg(S1),), Arrow.STRICT, Disj([S2, S3])),
            sig((Neg(S2),), Arrow.STRICT, Disj([S1, S3])),
            sig((Neg(S3),), Arrow.STRICT, Disj([S1, S2])),
            sig((Conj([Neg(S2), Neg(S3)]),), Arrow.STRICT, S1),
            sig((Conj([Neg(S1), Neg(S3)]),), Arrow.STRICT, S2),
            sig((Conj([Neg(S1), Neg(S2)]),), Arrow.STRICT, S3),
            sig((S1,), Arrow.STRICT, Conj([Neg(S2), Neg(S3)])),
            sig((S2,), Arrow.STRICT, Conj([Neg(S1), Neg(S3)])),
            sig((S3,), Arrow.STRICT, Conj([Neg(S1), Neg(S2)])),
        }
        assert got == expected

    def test_lottery_ids_and_order(self):
        desc = validate_description(lottery_facts(3), [])
        assert [repr(r) for r in desc.rules] == [
            "#rse: {} -> and{or{s1,s2,s3},or{~s1,~s2},or{~s1,~s3},or{~s2,~s3}}",
            "#s(s1): {s1} -> and{~s2,~s3}",
            "#s(s2): {s2} -> and{~s1,~s3}",
            "#s(s3): {s3} -> and{~s1,~s2}",
            "#s(~s1): {~s1} -> or{s2,s3}",
            "#s(~s2): {~s2} -> or{s1,s3}",
            "#s(~s3): {~s3} -> or{s1,s2}",
            "#s(and{~s1,~s2}): {and{~s1,~s2}} -> s3",
            "#s(and{~s1,~s3}): {and{~s1,~s3}} -> s2",
            "#s(and{~s2,~s3}): {and{~s2,~s3}} -> s1",
        ]

    def test_no_axioms_no_strict_rules(self):
        assert build_strict_rules([]) == ()

    def test_single_literal_axiom(self):
        assert sigs(build_strict_rules([A])) == {sig((), Arrow.STRICT, A)}

    def test_distinct_strict_rules_have_distinct_antecedents(self):
        rng = random.Random(43)
        for _ in range(60):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            strict = build_strict_rules(validate_description(facts, []).axioms)
            ants = [frozenset(r.antecedents) for r in strict]
            assert len(ants) == len(set(ants))

    def test_strict_rules_are_entailed_by_axioms(self):
        rng = random.Random(47)
        for _ in range(60):
            facts = [_random_formula(rng, 2) for _ in range(rng.randint(0, 3))]
            ax = validate_description(facts, []).axioms
            for r in build_strict_rules(ax):
                assert entails(list(ax) + list(r.antecedents), r.consequent)


def _reference_strict_rules(ax_formulas):
    """The strict rules built and ordered through formula comparisons: each
    clause expanded by subsets, merged by antecedent, every formula made by
    `conj`/`disj` and the rules sorted by their antecedent formulas."""
    groups = {}
    for c in ax_formulas:
        ls = lits(c)
        for size in range(len(ls)):
            for rest in combinations(sorted(ls), size):
                groups.setdefault(complement(rest), set()).add(ls.difference(rest))
    out = []
    for ants, consequents in groups.items():
        if ants:
            antecedent = conj(l.formula() for l in ants)
            rid, antecedents = f"#s({format_formula(antecedent)})", (antecedent,)
        else:
            rid, antecedents = "#rse", ()
        consequent = conj(disj(l.formula() for l in keep) for keep in consequents)
        out.append(Rule(rid, antecedents, Arrow.STRICT, consequent))
    return tuple(sorted(out, key=lambda r: r.antecedents))


def _reference_axiom_clauses(facts):
    """`build_axioms` over the clause form enumerated valuation by valuation."""
    clauses = set()
    for f in facts:
        avars = atoms(f)
        clauses.update(frozenset(Lit(a, a in v) for a in avars)
                       for v in classical.val_space(avars) if not evaluate(f, v))
    closed = classical.saturate(clauses)
    bad = classical.conflicting_units(closed)
    if bad:
        closed = classical.saturate(classical.without_errors(clauses, bad))
    return core_clauses(closed - {classical.EMPTY_CLAUSE})


class TestStrictRulesFromSortKeys:
    """Axioms and strict rules built from literal sort keys equal, in value,
    hash, text and order, those the formula-comparing path builds."""

    @staticmethod
    def fact_sets():
        for n in range(2, 11):
            yield lottery_facts(n)
        for n in range(1, 31):
            p = [Atom(f"p{i}") for i in range(n + 1)]
            yield [Disj([Neg(p[i]), p[i + 1]]) for i in range(n)]
        rng = random.Random(53)
        names = [Atom(x) for x in "abcdef"]
        for _ in range(300):
            facts = [_random_formula(rng, rng.randint(1, 3))
                     for _ in range(rng.randint(0, 4))]
            roll = rng.random()
            if roll < 0.2:  # a unit fact
                facts.append(Neg(rng.choice(names)) if rng.random() < 0.5
                             else rng.choice(names))
            elif roll < 0.3:  # a tautology
                a = rng.choice(names)
                facts.append(Disj([a, Neg(a), rng.choice(names)]))
            elif roll < 0.6:  # a clause of 3-6 literals, some written ~and{…}
                ls = [Neg(a) if rng.random() < 0.5 else a
                      for a in rng.sample(names, rng.randint(3, 6))]
                facts.append(Disj(ls) if rng.random() < 0.5
                             else Neg(Conj([Neg(g) for g in ls])))
            yield facts

    def test_equal_to_the_formula_path(self):
        seen = set()
        for facts in self.fact_sets():
            desc = validate_description(facts, [])
            clauses = _reference_axiom_clauses(facts)
            axioms = tuple(sorted({disj(l.formula() for l in c) for c in clauses}))
            rules = _reference_strict_rules(axioms)
            assert desc.axiom_clauses == clauses, facts
            assert desc.axioms == axioms and list(map(repr, desc.axioms)) == list(
                map(repr, axioms)), facts
            assert [hash(f) for f in desc.axioms] == [hash(f) for f in axioms]
            assert [(repr(r), r.rid, r.signature, hash(r.consequent), hash(r.antecedents))
                    for r in desc.rules] == [
                (repr(r), r.rid, r.signature, hash(r.consequent), hash(r.antecedents))
                for r in rules], facts
            assert build_strict_rules(axioms) == rules
            seen.add(len(desc.rules))
        assert max(seen) == 1033 and len(seen) > 30


class TestFactsFromPrimeImplicates:
    """Facts and support are entailment over the axioms inside the query's atoms."""

    def test_agrees_with_entailment(self):
        rng = random.Random(67)
        cases = [parse_kb(p.read_text(encoding="utf-8"))
                 for p in sorted(KB_DIR.glob("*.ppl"))]
        cases = [(doc.facts, doc.rules) for doc in cases]
        cases += [([_random_formula(rng, 2) for _ in range(rng.randint(0, 4))], [])
                  for _ in range(1000)]
        conflicting = probes = 0
        for facts, rules in cases:
            desc = validate_description(facts, rules)
            conflicting += bool(classical.err(clauses_of(facts)))
            fs = [g for f in desc.axioms for g in (f, Neg(f))]
            fs += [r.consequent for r in rules]
            fs += [_random_formula(rng, 2) for _ in range(8)]
            assert_facts_and_support(desc, fs)
            probes += len(fs)
        assert conflicting > 200 and probes > 10000
        supported = checks = 0
        for _ in range(300):
            desc = make_random_theory(rng)
            fs = [g for f in probe_formulas(desc) for g in (f, Neg(f))]
            supported += assert_facts_and_support(desc, fs)
            checks += len(fs) * len(desc.rules)
        assert supported > 5000 and checks > 30000

    def test_negations_share_the_clause_form_entries(self):
        # and{a,~b} is conjunction-shaped: its own questions are read off
        # its leaves, so only ~g's search and scan build a clause form, g's,
        # and ~g's is never built.  or{a,~b} as a rule consequent is
        # searched both ways: is it a fact, with ~d's clauses, and does it
        # support a, as a scan candidate, with its own
        a, b = Atom("a"), Atom("b")
        g, d = Conj([a, Neg(b)]), Disj([a, Neg(b)])
        for h, rules, forms, negations in (
                (g, [], [g], []),
                (d, [Rule("r", (), Arrow.DEFEASIBLE, d)], [d], [d])):
            desc = validate_description([Disj([a, b])], rules)
            for f in (h, Neg(h), Neg(Neg(h))):
                desc.is_fact(f)
                desc.supporters(f)
            assert list(desc._clause_forms) == forms and list(desc._negations) == negations

    def test_fact_and_consistency_share_one_entry(self, monkeypatch):
        # g is a fact exactly when ~g is inconsistent, and ~~g is g: the
        # three questions read one memo entry, keyed by g, no Neg.  One
        # kernel run decides them for or{s1,s2}; for the literal s1 the
        # unit axioms decide them, with none
        doc = parse_kb((KB_DIR / "lottery3.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        calls = _count_calls(monkeypatch, "find_model")
        for g, runs in ((S1, 0), (Disj([S1, S2]), 1)):
            calls["find_model"] = 0
            assert not desc.is_fact(g)
            assert desc._is_consistent(Neg(g))
            assert not desc.is_fact(Neg(Neg(g)))
            assert calls["find_model"] == runs, g
        assert list(desc._facts) == [S1, Disj([S1, S2])] and not desc._refuted
        assert not hasattr(desc, "_consistent")
        for f in (Neg(S1), Disj([S1, S2]), Neg(Neg(Conj([S1, Neg(S2)])))):
            desc.is_fact(f)
            desc._is_consistent(f)
        assert not any(type(f) is Neg for memo in (desc._facts, desc._refuted)
                       for f in memo)

    def test_queries_build_no_clause_form(self, monkeypatch):
        # every formula here is a clause or a conjunction of clauses, so the
        # kernel reads clauses off it and enumerates nothing
        doc = parse_kb((KB_DIR / "lottery4.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        calls = _count_calls(monkeypatch, "clauses_of", "satisfiable", "entails", "find_model")
        s1, s2, s3 = (Atom(f"s{i}") for i in (1, 2, 3))
        for f in (Neg(s1), s1, Disj([s1, s2]), Disj([s1, s2, s3])):
            for alg in ALG_ORDER:
                truth_value(desc, alg, f)
        assert calls["clauses_of"] == calls["satisfiable"] == calls["entails"] == 0
        assert calls["find_model"] > 0

    def test_wide_axioms_narrow_queries(self):
        # 22 atoms in the axioms, at most 2 in any rule or query
        doc = parse_kb(wide_implications_kb())
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert len(set().union(*map(atoms, desc.axioms))) == 22
        for f in (Atom("r3"), Neg(Atom("q5"))):
            assert not desc.is_fact(f)
            assert [truth_value(desc, alg, f).value for alg in ALG_ORDER] == (
                ["u"] + ["t"] * 6)

    def test_long_chain_answers_under_every_algorithm(self, monkeypatch):
        # p_i -> p_(i+1) for 24 links and {} => p0: the strict rule #s(p0)
        # concludes a 24-atom conjunction, the axiom rule one of 25 atoms
        p = [Atom(f"p{i}") for i in range(25)]
        desc = validate_description([Disj([Neg(p[i]), p[i + 1]]) for i in range(24)],
                                    [Rule("r", (), Arrow.DEFEASIBLE, p[0])])
        calls = _count_calls(monkeypatch, "clauses_of", "find_model")
        assert "".join(truth_value(desc, alg, p[24]).value for alg in ALG_ORDER) == "utttttt"
        # one kernel run per fact and consistency check, and per candidate
        # consequent that no pooled countermodel rejects: 426 here with one
        # pool shared by every scan over the chain's component, 475 with a
        # pool local to each scan, 1,399 when every candidate was refuted on
        # its own
        assert calls["clauses_of"] == 0 and 0 < calls["find_model"] <= 450

    def test_long_implication_chain(self):
        # 25 atoms: more than the default atom limit of entailment over Ax
        p = [Atom(f"p{i}") for i in range(25)]
        desc = validate_description(
            [Disj([Neg(p[i]), p[i + 1]]) for i in range(24)], [])
        assert desc.is_fact(Disj([Neg(p[0]), p[24]]))
        assert not desc.is_fact(Disj([p[0], Neg(p[24])]))
        assert not desc.is_fact(p[24])


class TestSupporterIndex:
    """Supporters come from the rules whose consequents touch the axiom
    components of the formula, each distinct consequent decided once."""

    def test_two_components(self):
        a, b, c, d = (Atom(x) for x in "abcd")
        rules = [Rule("rd", (), Arrow.DEFEASIBLE, d),
                 Rule("rbd", (), Arrow.DEFEASIBLE, Conj([b, d])),
                 Rule("ra", (), Arrow.DEFEASIBLE, a),
                 Rule("bad", (), Arrow.DEFEASIBLE, Conj([a, Neg(b)])),
                 Rule("none", (), Arrow.DEFEASIBLE, FALSUM)]
        facts = [Disj([Neg(a), b]), Disj([Neg(c), d])]  # a -> b, c -> d
        desc = validate_description(facts, rules)
        with_b = validate_description(facts + [b], rules)
        assert not desc.is_fact(b) and with_b.is_fact(b)

        def ids(desc, f):
            return [r.rid for r in desc.supporters(f)]

        # rd concludes d, outside b's component, so it supports b only
        # once b is a fact; and{b,d} touches both components
        assert ids(desc, b) == ["#s(a)", "rbd", "ra"]
        assert ids(desc, d) == ["#s(c)", "rd", "rbd"]
        # a fact, the verum among them, has every rule with a consistent
        # consequent; the falsum has none; the inconsistent consequents
        # and{a,~b} and or{} support nothing
        for x, f in ((desc, VERUM), (with_b, b), (with_b, VERUM)):
            assert ids(x, f) == [r.rid for r in x.rules if r.rid not in ("bad", "none")]
        assert ids(desc, FALSUM) == ids(with_b, FALSUM) == []
        fs = [b, d, Neg(b), a, Disj([b, d]), Conj([a, d]), FALSUM, VERUM]
        assert_facts_and_support(desc, fs)
        assert_facts_and_support(with_b, fs)

    def test_components_are_connected_components(self):
        rng = random.Random(19)
        for _ in range(300):
            names = [f"x{i}" for i in range(rng.randint(1, 12))]
            edges = [frozenset(rng.sample(names, rng.randint(1, min(3, len(names)))))
                     for _ in range(rng.randint(0, 10))]
            got = _components(edges)
            assert set(got) == set().union(*edges)
            for a in got:  # a's component, grown edge by edge
                reach, grew = {a}, True
                while grew:
                    grew = False
                    for e in edges:
                        if e & reach and not e <= reach:
                            reach |= e
                            grew = True
                assert {b for b in got if got[b] == got[a]} == reach

    def test_chain_top_makes_linear_entailment_calls(self, monkeypatch):
        n = 200
        desc = desc_rule_chain(n)
        calls = _count_calls(monkeypatch, "find_model")
        scanned = _record_scans(monkeypatch)
        assert truth_value(desc, Alg.BETA, Atom(f"a{n - 1}")) is TruthValue.TRUE
        # per link: two fact checks, of a_i and ~a_i, the second also
        # deciding a_i's consistency, and two support checks, each reading
        # a_i's or ~a_i's literal supporters off the index; no component
        # holds a non-literal consequent, so none is scanned (800 kernel
        # runs when each question was searched)
        assert calls["find_model"] == 0 and scanned == []
        assert len(desc._facts) == len(desc._refuted) == n
        assert len(desc._supporters) == len(desc._opposers) == n
        # a disjunction on top: one run decides that it is no fact; its
        # negation, and{~a199,~a198}, is read off its leaves' unit axioms
        # and literal supporters; its one scan accepts both consequents
        # touching its atoms, its leaves' supporters, with no search
        top = Disj([Atom(f"a{n - 1}"), Atom(f"a{n - 2}")])
        assert truth_value(desc, Alg.BETA, top) is TruthValue.TRUE
        assert calls["find_model"] == 1 and scanned == [top]

    def test_shared_consequents_are_decided_once(self, monkeypatch):
        # 3-stage ambiguity ladder: rb and tb conclude b_i, ranb and w ~b_i
        # (equal consequents, built separately as a parser builds them).
        # Conjoined, they conclude and{b_i,c_i} and and{~b_i,c_i}, which are
        # no literals, so their support is searched
        def ladder(conjoined):
            b, a = [Atom("b0")], [None]
            rules = [Rule("r0", (), Arrow.DEFEASIBLE, b[0])]
            for i in range(1, 4):
                a.append(Atom(f"a{i}"))
                b.append(Atom(f"b{i}"))

                def shared(l, i=i):
                    return Conj([l, Atom(f"c{i}")]) if conjoined else l

                rules += [Rule(f"ra{i}", (b[i - 1],), Arrow.DEFEASIBLE, a[i]),
                          Rule(f"rna{i}", (b[i - 1],), Arrow.DEFEASIBLE, Neg(a[i])),
                          Rule(f"rb{i}", (b[i - 1],), Arrow.DEFEASIBLE, shared(b[i])),
                          Rule(f"tb{i}", (b[i - 1],), Arrow.DEFEASIBLE, shared(Atom(f"b{i}"))),
                          Rule(f"ranb{i}", (a[i],), Arrow.DEFEASIBLE, shared(Neg(b[i]))),
                          Rule(f"w{i}", (a[i],), Arrow.WARNING, shared(Neg(Atom(f"b{i}"))))]
            return validate_description([], rules), a, b

        asked = []

        def recorded(parts, *rest, _find_model=classical.find_model):
            asked.append(tuple(frozenset(clauses) for clauses, _ in parts))
            return _find_model(parts, *rest)

        monkeypatch.setattr(classical, "find_model", recorded)
        for conjoined in (False, True):
            del asked[:]
            desc, a, b = ladder(conjoined)
            for i in range(1, 4):
                for f in (a[i], b[i], desc.rule(f"rb{i}").consequent):
                    for alg in ALG_ORDER:
                        truth_value(desc, alg, f)
            if conjoined:
                # each question decided by one kernel run: no search
                # repeats the clauses of another
                assert asked and len(asked) == len(set(asked))
            else:
                assert asked == []  # literal questions only


class TestLiteralQuestions:
    """A literal question reads the axioms, the prime implicates: a literal
    is a fact when it is a unit axiom, and a consistent literal c supports
    a literal l that is no fact when c is l or {~c, l} is an axiom.  The
    valuation oracle checks the answers on 8 links, 9 atoms; 25 atoms are
    past its enumeration limit."""

    @staticmethod
    def chain(links, *facts):
        # p_i -> p_(i+1) and {} => p0
        p = [Atom(f"p{i}") for i in range(links + 1)]
        implications = [Disj([Neg(p[i]), p[i + 1]]) for i in range(links)]
        return p, validate_description(implications + list(facts),
                                       [Rule("r", (), Arrow.DEFEASIBLE, p[0])])

    def test_support_through_a_binary_implicate(self, monkeypatch):
        asked = []

        def recorded(parts, *rest, _find_model=classical.find_model):
            asked.append(parts)
            return _find_model(parts, *rest)

        monkeypatch.setattr(classical, "find_model", recorded)
        for links in (24, 8):
            p, desc = self.chain(links)
            assert frozenset((Lit("p0", True), Lit("p5", False))) in desc.axiom_clauses
            del asked[:]
            assert desc.rule("r") in desc.supporters(p[5])
            # the literal candidates, r's p0, #s(p_(n-1))'s p_n and #s(~p1)'s
            # ~p0, are decided without a search; only conjunctions are
            searched = [parts[0][0] for parts in asked if len(parts) == 2]
            assert searched and all(len(clauses) > 1 for clauses in searched)
        assert_facts_and_support(desc, [p[5], Neg(p[5]), p[0], Neg(p[8])])

    def test_a_unit_axiom_is_a_fact_without_a_search(self, monkeypatch):
        calls = _count_calls(monkeypatch, "find_model")
        for links in (24, 8):
            p, desc = self.chain(links, Atom("p0"))  # every p_i a unit axiom
            assert Lit(f"p{links}", False) in desc._units
            calls["find_model"] = 0
            assert desc.is_fact(p[links]) and desc.is_fact(Neg(Neg(p[7])))
            assert not desc.is_fact(Neg(p[3])) and not desc._is_consistent(Neg(p[3]))
            assert calls["find_model"] == 0
        assert_facts_and_support(desc, [p[8], Neg(p[8]), Atom("q"), Neg(Atom("q"))])


class TestLiteralIndex:
    """A literal's literal supporters are read off an index built with the
    description: the literal consequents equal to it, once leading
    negations are stripped, and those c for which {~c, l} is an axiom, each
    kept if consistent.  Only a component holding a non-literal consequent
    is scanned, and then only for those.  Every answer is checked against
    entailment over all the axioms."""

    @staticmethod
    def literals(desc):
        return [l for a in sorted({a for r in desc.rules for a in atoms(r.consequent)})
                for l in (Atom(a), Neg(Atom(a)), Neg(Neg(Atom(a))))]

    def test_wide_and_ranked_theories(self, monkeypatch):
        # every consequent is a literal, so no literal is scanned; about a
        # third of the wide theories have a two-literal axiom, whose strict
        # rules and links take part
        scanned = _record_scans(monkeypatch)
        linked = 0
        for seed in range(60):
            for make in (make_wide_theory, make_ranked_theory):
                desc = make(random.Random(seed))
                assert_facts_and_support(desc, self.literals(desc))
                linked += any(len(c) == 2 for c in desc.axiom_clauses)
        assert scanned == [] and linked > 10

    def test_double_negations(self):
        a, b = Atom("a"), Atom("b")
        rules = [Rule("r1", (), Arrow.DEFEASIBLE, Neg(Neg(a))),
                 Rule("r2", (), Arrow.DEFEASIBLE, a),
                 Rule("r3", (), Arrow.DEFEASIBLE, Neg(Neg(Neg(a)))),
                 Rule("r4", (), Arrow.DEFEASIBLE, Neg(Neg(b)))]
        desc = validate_description([Disj([Neg(a), b])], rules)  # a -> b
        assert [r.rid for r in desc.supporters(a)] == ["r1", "r2"]
        assert [r.rid for r in desc.supporters(Neg(Neg(a)))] == ["r1", "r2"]
        assert [r.rid for r in desc.supporters(Neg(a))] == ["#s(~b)", "r3"]
        assert [r.rid for r in desc.supporters(b)] == ["#s(a)", "r1", "r2", "r4"]
        assert_facts_and_support(desc, self.literals(desc))

    def test_a_unit_fact_makes_a_literal_inconsistent(self):
        a, b = Atom("a"), Atom("b")
        rules = [Rule("ra", (), Arrow.DEFEASIBLE, a),
                 Rule("rna", (), Arrow.DEFEASIBLE, Neg(Neg(a))),
                 Rule("rb", (), Arrow.DEFEASIBLE, b)]
        # ~a is a fact, so a is no fact but supported by no rule; the
        # implication b -> a is subsumed by the unit axiom {~a}
        desc = validate_description([Neg(a), Disj([Neg(b), a])], rules)
        assert desc.axiom_clauses == {frozenset((Lit("a", True),)),
                                      frozenset((Lit("b", True),))}
        assert not desc.is_fact(a) and desc.supporters(a) == ()
        assert desc.supporters(b) == ()
        assert_facts_and_support(desc, self.literals(desc))

    def test_an_axiom_links_two_literal_consequents(self, monkeypatch):
        a, b = Atom("a"), Atom("b")
        rules = [Rule("ra", (), Arrow.DEFEASIBLE, a),
                 Rule("rna", (), Arrow.DEFEASIBLE, Neg(a)),
                 Rule("rb", (), Arrow.DEFEASIBLE, b),
                 Rule("rnb", (), Arrow.DEFEASIBLE, Neg(b))]
        desc = validate_description([Disj([Neg(a), b])], rules)  # a -> b
        calls = _count_calls(monkeypatch, "find_model")
        scanned = _record_scans(monkeypatch)
        # a supports b through the axiom {~a, b}, and ~b supports ~a
        assert [r.rid for r in desc.supporters(b)] == ["#s(a)", "ra", "rb"]
        assert [r.rid for r in desc.supporters(Neg(a))] == ["#s(~b)", "rna", "rnb"]
        assert [r.rid for r in desc.supporters(a)] == ["ra"]
        assert [r.rid for r in desc.supporters(Neg(b))] == ["rnb"]
        assert calls["find_model"] == 0 and scanned == []
        assert_facts_and_support(desc, self.literals(desc))

    def test_literal_and_compound_supporters_in_one_component(self, monkeypatch):
        a, b, c = Atom("a"), Atom("b"), Atom("c")
        rules = [Rule("ra", (), Arrow.DEFEASIBLE, a),
                 Rule("rac", (), Arrow.DEFEASIBLE, Conj([a, c])),
                 Rule("rab", (), Arrow.DEFEASIBLE, Disj([a, b])),
                 Rule("rnac", (), Arrow.DEFEASIBLE, Disj([Neg(a), c])),
                 Rule("rc", (), Arrow.DEFEASIBLE, c)]
        desc = validate_description([Disj([Neg(a), b])], rules)  # a -> b
        searched = []

        def recorded(parts, *rest, _find_model=classical.find_model):
            if len(parts) == 2:  # a candidate's clauses, then ~f's
                searched.append(frozenset(parts[0][0]))
            return _find_model(parts, *rest)

        monkeypatch.setattr(classical, "find_model", recorded)
        scanned = _record_scans(monkeypatch)
        # ra through the axiom {~a, b}, rac and rab by a search; b's scan
        # searches only the non-literal consequents of its component
        assert [r.rid for r in desc.supporters(b)] == ["#s(a)", "ra", "rac", "rab"]
        assert scanned == [b] and searched
        assert all(len(cs) > 1 or len(min(cs)) > 1 for cs in searched), searched
        # c's component is c alone, outside the axioms: c's scan searches
        # and{a,c} and or{~a,c}, which touch it, and not c
        del searched[:]
        assert [r.rid for r in desc.supporters(c)] == ["rac", "rc"]
        a_, na, c_ = Lit("a", False), Lit("a", True), Lit("c", False)
        assert scanned == [b, c]
        assert sorted(searched, key=len) == [frozenset({frozenset({na, c_})}),
                                             frozenset({frozenset({a_}), frozenset({c_})})]
        assert_facts_and_support(desc, self.literals(desc) + [Disj([b, c]), Conj([a, c])])


class TestLiteralFastPath:
    """A literal that is no fact, in a component holding no non-literal
    consequent, takes its supporters straight off the literal index: the
    linked consequents whose complement is no unit axiom, their rules in
    rule order.  Each answer is checked against entailment and
    satisfiability over all the axioms, both polarities of every atom."""

    KB = ("fact: u\n"
          "fact: or{~p,q}\n"
          "rule bad: {} => ~u\n"     # concludes the complement of a unit axiom
          "rule r1: {} => q\n"
          "rule w: {u} ~> p\n"       # a warning rule linked to q through {~p, q}
          "rule r2: {} => p\n"
          "rule r3: {} => ~~q\n"
          "rule r4: {} => ~p\n"
          "rule r5: {u} => x\n")

    @staticmethod
    def description(text):
        doc = parse_kb(text)
        return validate_description(doc.facts, doc.rules, doc.priority)

    @staticmethod
    def literals(desc):
        names = sorted({a for r in desc.rules for a in atoms(r.consequent)})
        return [l for a in names for l in (Atom(a), Neg(Atom(a)))]

    def assert_definition(self, desc):
        assert_facts_and_support(desc, self.literals(desc))
        for l in self.literals(desc):
            assert desc.supporters(l, desc.rsd()) == tuple(
                r for r in desc.supporters(l) if r in desc.rsd())

    def test_unit_axiom_inconsistent_rule_warning_and_rule_order(self, monkeypatch):
        desc = self.description(self.KB)
        calls = _count_calls(monkeypatch, "find_model")
        scanned = _record_scans(monkeypatch)
        ids = [r.rid for r in desc.rules]
        # ~u is no fact, and bad's consequent ~u is inconsistent: not linked
        assert desc.supporters(Neg(Atom("u"))) == ()
        # q's linked consequents, q and ~~q directly and p through the axiom
        # {~p, q}, give their rules in rule order, not consequent by consequent
        got = [r.rid for r in desc.supporters(Atom("q"))]
        assert got == ["#s(p)", "r1", "w", "r2", "r3"]
        assert got == sorted(got, key=ids.index)
        # the warning rule supports q but is left out of the rsd() view
        assert [r.rid for r in desc.supporters(Atom("q"), desc.rsd())] == [
            "#s(p)", "r1", "r2", "r3"]
        assert [r.rid for r in desc.supporters(Neg(Atom("p")))] == ["#s(~q)", "r4"]
        assert [r.rid for r in desc.supporters(Atom("x"))] == ["r5"]
        assert calls["find_model"] == 0 and scanned == []
        # the fact path: every rule with a consistent consequent, so not bad
        assert desc.is_fact(Atom("u"))
        assert [r.rid for r in desc.supporters(Atom("u"))] == [
            r for r in ids if r != "bad"]
        self.assert_definition(desc)

    def test_fact_path_searches_nothing_for_the_axiom_rule(self, monkeypatch):
        # a fact's supporters are the rules with a consistent consequent; the
        # axiom rule's, and{u,or{~p,q}}, is consistent since the axioms are
        # satisfiable, as the description records, so no search decides it
        desc = self.description("fact: u\nfact: or{~p,q}\n")
        calls = _count_calls(monkeypatch, "find_model")
        assert [r.rid for r in desc.supporters(Atom("u"))] == ["#rse", "#s(p)", "#s(~q)"]
        assert calls["find_model"] == 0
        assert desc.rse.consequent not in desc._refuted  # nor a memo entry
        self.assert_definition(desc)

    def test_one_literal_axiom_set(self, monkeypatch):
        # the axiom rule #rse concludes the unit axiom u itself; it is no
        # linked consequent, so it supports only the facts
        desc = self.description("fact: u\nrule a: {} => ~u\nrule b: {} => u\n"
                                "rule c: {u} => x\nrule d: {} => ~x\n")
        assert desc.rse.consequent == Atom("u") and desc.rse_id == "#rse"
        scanned = _record_scans(monkeypatch)
        assert [r.rid for r in desc.supporters(Atom("u"))] == ["#rse", "b", "c", "d"]
        assert desc.supporters(Neg(Atom("u"))) == ()
        assert [r.rid for r in desc.supporters(Atom("x"))] == ["c"]
        assert [r.rid for r in desc.supporters(Neg(Atom("x")))] == ["d"]
        assert scanned == []
        self.assert_definition(desc)

    def test_two_axioms_through_one_literal(self):
        # {~p, q} and {~r, q} make the strict rule {~q} -> and{~p,~r}, so q's
        # component holds a non-literal consequent and is scanned; the same
        # literal questions must get the same answers
        desc = self.description(self.KB + "fact: or{~r,q}\nrule r6: {} => r\n")
        assert [r.rid for r in desc.supporters(Atom("q"))] == [
            "#s(p)", "#s(r)", "r1", "w", "r2", "r3", "r6"]
        self.assert_definition(desc)


class TestSupporterScan:
    """One supporter scan propagates ~f once and rejects candidates that a
    pooled countermodel satisfies, without a search."""

    def test_pooled_models_take_the_unit_axioms(self):
        # the scan of a tests ~a, which pools a countermodel, before
        # or{a,~b} and a; the pooled model must decide b as the axiom {b}
        # does, not negative, or it would satisfy or{a,~b} and reject it
        a, b = Atom("a"), Atom("b")
        desc = validate_description([b], [Rule("u1", (), Arrow.DEFEASIBLE, Neg(a)),
                                          Rule("u2", (b,), Arrow.DEFEASIBLE,
                                               Disj([a, Neg(b)])),
                                          Rule("u3", (), Arrow.DEFEASIBLE, a)])
        assert [r.rid for r in desc.supporters(a)] == ["u2", "u3"]
        assert_facts_and_support(desc, [a, Neg(a), b, Neg(b), Disj([a, b])])

    def test_lottery_scans_run_few_kernels(self, monkeypatch):
        # 8 tickets: 37,264 refutations when each candidate consequent was
        # refuted on its own, 3,440 kernel runs with a pool local to each
        # scan, 1,583 once a conjunction's supporters were read off its
        # members', 1,574 with consistency decided by the fact check,
        # 1,511 with one pool per component set shared by every scan,
        # 1,503 with a fact and its negation's consistency one memo entry,
        # and 1,040 since conjunction-shaped questions are answered from
        # their members and disjunction scans accept their members' supporters
        tickets = [Atom(f"s{i}") for i in range(1, 9)]
        rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, Neg(t)) for i, t in enumerate(tickets)]
        rules += [Rule(f"q{i}", (), Arrow.DEFEASIBLE, Disj(tickets[:i] + tickets[i + 1:]))
                  for i in range(8)]
        desc = validate_description(lottery_facts(8), rules)
        calls = _count_calls(monkeypatch, "find_model")
        assert "".join(truth_value(desc, alg, Neg(tickets[0])).value
                       for alg in ALG_ORDER) == "utttttt"
        assert 0 < calls["find_model"] <= 1550

    def test_wide_disjunction_extends_pooled_models(self, monkeypatch):
        # fact or{a0..a9}, each a_i usually false and implied by a_(i+1):
        # every scan walks the one component's candidates, and a pooled
        # model decided over all its atoms rejects them by bit tests.  52-54
        # kernel runs (104 before disjunction scans accepted their members'
        # supporters).  A pool of unextended models rejects fewer candidates
        # but never a wrong one, so only this bound sees it: 133-134 runs;
        # a pool local to each scan makes 179
        a = [Atom(f"a{i}") for i in range(10)]
        rules = [Rule(f"d{i}", (), Arrow.DEFEASIBLE, Neg(a[i])) for i in range(10)]
        rules += [Rule(f"e{i}", (a[(i + 1) % 10],), Arrow.DEFEASIBLE, a[i])
                  for i in range(10)]
        desc = validate_description([Disj(a)], rules)
        calls = _count_calls(monkeypatch, "find_model")
        for f in a:
            assert "".join(truth_value(desc, alg, f).value
                           for alg in ALG_ORDER) == "uffffff"
        assert 0 < calls["find_model"] <= 80

    def test_a_scan_reads_the_negation_once(self, monkeypatch):
        # one part holds ~s1's clauses for the pool's test, the propagation
        # ahead and every candidate's search
        doc = parse_kb((KB_DIR / "lottery4.ppl").read_text(encoding="utf-8"))
        desc = validate_description(doc.facts, doc.rules, doc.priority)
        assert not desc.is_fact(S1)
        read = []

        def recorded(self, f, negated, _clauses=PlausibleDescription._clauses):
            read.append((f, negated))
            return _clauses(self, f, negated)

        monkeypatch.setattr(PlausibleDescription, "_clauses", recorded)
        calls = _count_calls(monkeypatch, "find_model")
        desc.supporters(S1)
        assert calls["find_model"] > 1 and read.count((S1, True)) == 1

    def test_later_scans_reuse_the_pooled_models(self, monkeypatch):
        # s1's scan pools countermodels over the lottery's one component;
        # s2's scan, over the same component, rejects every candidate that a
        # pooled model of ~s2 satisfies without a search, so it searches
        # less than the same scan on a fresh description
        tested = []

        def recorded(parts, *rest, _find_model=classical.find_model):
            if len(parts) == 2:  # a candidate's clauses, then ~f's
                tested.append(frozenset(parts[0][0]))
            return _find_model(parts, *rest)

        monkeypatch.setattr(classical, "find_model", recorded)
        fresh, warm = desc_lottery3(), desc_lottery3()
        fresh.supporters(S2)
        cold = list(tested)
        warm.supporters(S1)
        (candidates, _, entries), = warm._pools.values()
        rejected = {frozenset(warm._clauses(c, False)[0])
                    for m, mask in entries if Lit("s2", True) in m  # m satisfies ~s2
                    for j, c in enumerate(candidates) if mask >> j & 1}
        del tested[:]
        assert warm.supporters(S2) == fresh.supporters(S2)
        assert rejected and not rejected & set(tested)
        assert len(tested) < len(cold)


def _component_theory(rng):
    """Facts linking the atoms of two or three axiom components, and six to
    nine defeasible rules whose consequents, like the probe formulas
    returned with them, take literals from several components and from an
    atom outside the axioms."""
    names = ["pqr"[i] + str(j) for i in range(rng.randint(2, 3)) for j in range(2)]
    if len(names) == 4:
        names += ["q2"]
    groups = {}
    for a in names:
        groups.setdefault(a[0], []).append(Atom(a))

    def lit(a):
        return Neg(a) if rng.random() < 0.5 else a

    facts = [Disj([lit(a), lit(b)]) for group in groups.values()
             for a, b in zip(group, group[1:])]
    lits = [l for a in names + ["z"] for l in (Atom(a), Neg(Atom(a)))]

    def spanning():
        members = rng.sample(lits, rng.randint(2, 3))
        f = Disj(members) if rng.random() < 0.5 else Conj(members)
        return Neg(f) if rng.random() < 0.2 else f

    rules = [Rule(f"u{i}", (), Arrow.DEFEASIBLE,
                  rng.choice(lits) if rng.random() < 0.3 else spanning())
             for i in range(rng.randint(6, 9))]
    fs = lits + [spanning() for _ in range(12)]
    return facts, rules, fs


class TestSharedPool:
    """The countermodels a scan pools serve every later scan over the same
    components: each later answer equals entailment over all the axioms,
    whatever the order of the queries and of the components a scan walks."""

    def test_component_theories(self):
        rng = random.Random(83)
        pooled = 0
        for _ in range(20):
            facts, rules, fs = _component_theory(rng)
            for _ in range(2):
                desc = validate_description(facts, rules)
                assert_facts_and_support(desc, rng.sample(fs, len(fs)))
                pooled += sum(len(entries) for _, _, entries in desc._pools.values())
        assert pooled > 200

    def test_component_orders(self):
        # a scan's candidates come in the order of its components; the
        # pool's masks index the tuple fixed when the pool was made
        rng = random.Random(89)
        walked = 0
        for _ in range(40):
            facts, rules, fs = _component_theory(rng)
            desc = validate_description(facts, rules)
            ax = desc.axioms
            for f in rng.sample(fs, len(fs)):
                # a literal's scan walks its one component, and only its
                # non-literal candidates (see TestLiteralIndex)
                if desc.is_fact(f) or type(f) is Conj or is_literal(f):
                    continue
                want = {r.consequent for r in desc.rules
                        if satisfiable(ax + (r.consequent,))
                        and entails(ax + (r.consequent,), f)}
                ks = list({desc._component.get(a, a) for a in atoms(f)})
                for _ in range(3):
                    rng.shuffle(ks)
                    assert set(desc._supported(f, False, ks)) == want, (facts, rules, f, ks)
                walked += len(ks) > 1
        assert walked > 200


class TestConjunctionSupporters:
    """A conjunction that is no fact is supported by the rules that support
    every member; the split equals the direct scan over all the axioms, in
    rule order, and so do its `rules=` subsets."""

    @staticmethod
    def conjunctions(rng, desc, fs, k):
        """k of each kind of conjunction over fs: nested with a repeated
        member, with a fact member (and{} among them), and with an
        inconsistent member."""
        facts = [VERUM, *desc.axioms]
        out = []
        for _ in range(k):
            f, g, h = (rng.choice(fs) for _ in range(3))
            out += [Conj([f, Conj([g, Conj([f, h])])]),
                    Conj([f, Conj([rng.choice(facts), g])]),
                    Conj([f, rng.choice((FALSUM, Conj([g, Neg(g)])))])]
        return out

    @staticmethod
    def check(rng, desc, fs):
        """Subsets first, so that they meet cold memos, then the direct scan.
        Returns the number of conjunctions split and of their supporters."""
        for f in fs:
            subset = rng.sample(desc.rules, rng.randint(0, len(desc.rules)))
            got = desc.supporters(f, subset)
            full = desc.supporters(f)
            assert got == tuple(r for r in subset if r in full), f
            assert desc.supporters(f, desc.rsd()) == tuple(r for r in full
                                                           if r in desc.rsd()), f
        split = sum(type(f) is Conj and not desc.is_fact(f) for f in fs)
        return split, assert_facts_and_support(desc, fs)

    def test_random_theories(self):
        rng = random.Random(71)
        split = supported = 0
        for _ in range(150):
            desc = make_random_theory(rng)
            fs = [g for f in probe_formulas(desc) for g in (f, Neg(f))]
            fs = rng.sample(fs, min(8, len(fs)))
            fs += self.conjunctions(rng, desc, fs, 3)
            counts = self.check(rng, desc, fs)
            split, supported = split + counts[0], supported + counts[1]
        assert split > 1000 and supported > 1000

    def test_kb_files(self):
        rng = random.Random(73)
        for path in sorted(KB_DIR.glob("*.ppl")):
            doc = parse_kb(path.read_text(encoding="utf-8"))
            desc = validate_description(doc.facts, doc.rules, doc.priority)
            fs = probe_formulas(desc) + [r.consequent for r in desc.rules]
            fs += [f for r in desc.rules for f in r.antecedents]
            fs += self.conjunctions(rng, desc, fs, 10)
            split, _ = self.check(rng, desc, fs)
            assert split >= 20, path.name

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_lottery_strict_antecedents(self, n):
        # each ticket usually loses, the winner is among any n - 1 of them
        tickets = [Atom(f"s{i}") for i in range(1, n + 1)]
        rules = [Rule(f"d{i}", (), Arrow.DEFEASIBLE, Neg(t)) for i, t in enumerate(tickets)]
        rules += [Rule(f"t{i}", (), Arrow.DEFEASIBLE, Disj(tickets[:i] + tickets[i + 1:]))
                  for i in range(n)]
        desc = validate_description(lottery_facts(n), rules)
        fs = [r.antecedents[0] for r in desc.rules if r.arrow is Arrow.STRICT and r.antecedents]
        # the 2^n - 2 conjunctions of negated tickets, and each ticket
        assert len(fs) == 2 ** n - 2 + n
        rng = random.Random(n)
        fs += self.conjunctions(rng, desc, fs, 5)
        split, supported = self.check(rng, desc, fs)
        assert split > len(fs) // 2 and supported > 0


class TestValidation:
    def test_lottery_description(self):
        desc = desc_lottery3()
        assert len(desc.rules) == 16
        assert len(desc.axioms) == 4
        assert desc.rse_id is not None
        assert desc.rule(desc.rse_id).antecedents == ()
        assert desc.rse is desc.rule("#rse")
        assert [desc.rule(r.rid) for r in desc.rules] == list(desc.rules)
        with pytest.raises(UnknownRuleIdError) as exc:
            desc.rule("nope")
        assert exc.value.rid == "nope"

    def test_axioms_empty_iff_no_strict_rules(self):
        d1 = desc_plausible_default()
        assert d1.axioms == () and d1.rse_id is None
        assert all(r.arrow is not Arrow.STRICT for r in d1.rules)

    def test_cyclic_priority_two_cycle(self):
        rules = [
            Rule("x", (), Arrow.DEFEASIBLE, A),
            Rule("y", (), Arrow.DEFEASIBLE, B),
        ]
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, [("x", "y"), ("y", "x")])
        assert set(exc.value.cycle) == {"x", "y"}

    def test_cycle_reported_in_superior_to_inferior_order(self):
        rules = [Rule(rid, (), Arrow.DEFEASIBLE, A) for rid in "xyz"]
        pairs = [("x", "y"), ("y", "z"), ("z", "x")]
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, pairs)
        cycle = exc.value.cycle
        assert sorted(cycle) == ["x", "y", "z"]
        assert {(cycle[i], cycle[(i + 1) % 3]) for i in range(3)} == set(pairs)
        assert str(exc.value) == "cyclic priority: " + " > ".join(cycle + cycle[:1])

    def test_long_acyclic_priority_chain_at_the_default_limit(self):
        n = 5001
        rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, A) for i in range(n)]
        pairs = [(f"r{i}", f"r{i + 1}") for i in range(n - 1)]
        desc = validate_description([], rules, pairs)
        assert len(desc.priority) == 5000
        with pytest.raises(CyclicPriorityError) as exc:
            validate_description([], rules, pairs + [(f"r{n - 1}", "r0")])
        assert len(exc.value.cycle) == n

    def test_cyclic_priority_self_loop(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, A)]
        with pytest.raises(CyclicPriorityError):
            validate_description([], rules, [("x", "x")])

    def test_priority_below_axiom_rule_rejected(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, B)]
        with pytest.raises(PriorityOverRseError):
            validate_description([A], rules, [("x", "#rse")])

    def test_axiom_rule_may_be_superior(self):
        rules = [Rule("x", (), Arrow.DEFEASIBLE, B)]
        desc = validate_description([A], rules, [("#rse", "x")])
        assert ("#rse", "x") in desc.priority

    def test_unknown_priority_id(self):
        rules = [Rule("r9", (), Arrow.DEFEASIBLE, A)]
        with pytest.raises(UnknownRuleIdError):
            validate_description([], rules, [("r9", "rX")])

    def test_unknown_superior_id(self):
        rules = [Rule("r9", (), Arrow.DEFEASIBLE, A)]
        with pytest.raises(UnknownRuleIdError) as exc:
            validate_description([], rules, [("rX", "r9")])
        assert exc.value.rid == "rX"

    def test_duplicate_ids_rejected(self):
        rules = [
            Rule("r", (), Arrow.DEFEASIBLE, A),
            Rule("r", (), Arrow.DEFEASIBLE, B),
        ]
        with pytest.raises(DuplicateRuleIdError):
            validate_description([], rules)

    def test_user_strict_rules_rejected(self):
        with pytest.raises(StrictRuleRejectedError):
            validate_description([], [Rule("r", (), Arrow.STRICT, A)])

    def test_random_dags_accepted_and_injected_cycles_rejected(self):
        rng = random.Random(53)
        for _ in range(60):
            n = rng.randint(2, 6)
            rules = [Rule(f"r{i}", (), Arrow.DEFEASIBLE, A) for i in range(n)]
            order = list(range(n))
            rng.shuffle(order)
            edges = [
                (f"r{order[i]}", f"r{order[j]}")
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < 0.4
            ]
            desc = validate_description([], rules, edges)
            assert desc.priority == frozenset(edges)
            if edges:
                sup, inf = rng.choice(edges)
                with pytest.raises(CyclicPriorityError):
                    validate_description([], rules, edges + [(inf, sup)])


class TestRuleIndexing:
    def test_lottery_supporters_of_losing(self):
        desc = desc_lottery3()
        got = sigs(desc.supporters(Neg(S1), desc.rsd()))
        assert got == {
            sig((Neg(S1),), Arrow.STRICT, Disj([S2, S3])),
            sig((Conj([Neg(S1), Neg(S3)]),), Arrow.STRICT, S2),
            sig((Conj([Neg(S1), Neg(S2)]),), Arrow.STRICT, S3),
            sig((S2,), Arrow.STRICT, Conj([Neg(S1), Neg(S3)])),
            sig((S3,), Arrow.STRICT, Conj([Neg(S1), Neg(S2)])),
            sig((), Arrow.DEFEASIBLE, Neg(S1)),
            sig((), Arrow.DEFEASIBLE, Disj([S2, S3])),
        }

    def test_lottery_supporters_of_winning(self):
        desc = desc_lottery3()
        got = sigs(desc.supporters(S1, desc.rsd()))
        assert got == {
            sig((Conj([Neg(S2), Neg(S3)]),), Arrow.STRICT, S1),
            sig((S1,), Arrow.STRICT, Conj([Neg(S2), Neg(S3)])),
        }
        assert got == sigs(desc.supporters(Conj([Neg(S2), Neg(S3)]), desc.rsd()))

    def test_no_supporters_against_unopposed_default(self):
        desc = desc_plausible_default()
        assert desc.supporters(Neg(A)) == ()

    def test_subset_queries_are_restrictions(self):
        desc = desc_lottery3()
        rng = random.Random(59)
        probes = [Neg(S1), S1, Disj([S1, S2]), Conj([Neg(S1), Neg(S2)])]
        for f in probes:
            full = set(desc.supporters(f))
            sub = rng.sample(desc.rules, 8)
            assert set(desc.supporters(f, sub)) == full & set(sub)

    def test_equivalent_formulas_have_equal_supporter_sets(self):
        desc = desc_lottery3()
        assert desc.supporters(Neg(S1)) == desc.supporters(Neg(Neg(Neg(S1))))
        assert desc.supporters(S1) == desc.supporters(Conj([S1, S1]))

    def test_supporter_memos_hold_no_negation(self):
        # a formula's supporters and its foes' (those of its negation) are
        # kept under the formula without leading negations, so `foes` builds
        # no Neg to ask; 200 of the 400 keys were Neg objects before
        desc = desc_rule_chain(200)
        assert truth_value(desc, Alg.BETA, Atom("a199")) is TruthValue.TRUE
        assert len(desc._supporters) == len(desc._opposers) == 200
        assert not any(type(f) is Neg for memo in (desc._supporters, desc._opposers)
                       for f in memo)

    def test_entailment_makes_supporters_monotone(self):
        desc = desc_lottery3()
        # axioms + or{s2,s3} entail ~s1, so supporters carry over
        f, g = Disj([S2, S3]), Neg(S1)
        assert set(desc.supporters(f)) <= set(desc.supporters(g))
        assert set(desc.supporters(Neg(g))) <= set(desc.supporters(Neg(f)))

    def test_superior_supporters_empty_priority(self):
        desc = desc_lottery3()
        for f in (Neg(S1), S1):
            for s in desc.rules:
                assert desc.superior_supporters(f, s) == ()

    def test_superior_supporters_with_priority(self):
        m, c, s = Atom("m"), Atom("c"), Atom("s")
        shell = Rule("ms", (m,), Arrow.DEFEASIBLE, s)
        no_shell = Rule("cns", (c,), Arrow.DEFEASIBLE, Neg(s))
        desc = validate_description([], [shell, no_shell], [("cns", "ms")])
        got = desc.superior_supporters(Neg(s), shell)
        assert [r.rid for r in got] == ["cns"]

    def test_superior_supporters_on_empty_subset(self):
        desc = desc_ambiguity()
        assert desc.superior_supporters(Atom("b"), desc.rule("rb"), []) == ()

    def test_queries_keep_equality_and_fields_are_frozen(self):
        warm, fresh = desc_lottery3(), desc_lottery3()
        for alg in ALG_ORDER:
            truth_value(warm, alg, Neg(S1))
        assert warm == fresh and hash(warm) == hash(fresh)
        with pytest.raises(FrozenInstanceError):
            warm.rules = ()
        assert warm.rules == fresh.rules
        # the memos are derived state, not fields
        assert [f.name for f in fields(warm)] == ["rules", "priority", "axiom_clauses",
                                                  "axioms", "rse_id", "max_atoms"]

    def test_caches_are_pure_memos(self):
        # warm caches answer exactly like a fresh description
        m, c, s = Atom("m"), Atom("c"), Atom("s")

        def prioritised():
            rules = [Rule("ms", (m,), Arrow.DEFEASIBLE, s),
                     Rule("cns", (c,), Arrow.DEFEASIBLE, Neg(s)),
                     Rule("w", (), Arrow.WARNING, Neg(s))]
            return validate_description([Disj([m, c])], rules,
                                        [("cns", "ms"), ("w", "ms")])

        for build, probes in (
            (desc_lottery3, [Neg(S1), S1, Disj([S1, S2]), Conj([Neg(S1), Neg(S2)])]),
            (prioritised, [s, Neg(s), Disj([m, c])]),
        ):
            warm = build()
            for f in probes:
                warm.supporters(f)
                warm.supporters(f, warm.rsd())
                warm.is_fact(f)
                for r in warm.rules:
                    warm.superior_supporters(f, r, warm.rsd())
            fresh = build()
            for f in probes:
                assert warm.supporters(f) == fresh.supporters(f)
                assert warm.supporters(f, warm.rsd()) == fresh.supporters(f, fresh.rsd())
                assert warm.is_fact(f) == fresh.is_fact(f)
                for r in fresh.rules:
                    assert (warm.superior_supporters(f, warm.rule(r.rid), warm.rsd())
                            == fresh.superior_supporters(f, r, fresh.rsd()))
                    # the short cut for rules never inferior keeps the definition
                    for rules in (None, fresh.rsd()):
                        assert fresh.superior_supporters(f, r, rules) == tuple(
                            t for t in fresh.supporters(f, rules)
                            if (t.rid, r.rid) in fresh.priority)
                # restricting to rsd() keeps the declared order
                every = set(fresh.supporters(f))
                assert warm.supporters(f, warm.rsd()) == tuple(
                    r for r in fresh.rsd() if r in every)
        ms = warm.rule("ms")
        assert [t.rid for t in warm.superior_supporters(Neg(s), ms)] == ["cns", "w"]
        assert [t.rid for t in warm.superior_supporters(Neg(s), ms, warm.rsd())] == ["cns"]

    def test_entailment_monotonicity_on_generated_theories(self):
        import random as _random

        from conftest import make_random_theory, probe_formulas

        rng = _random.Random(71)
        for _ in range(40):
            desc = make_random_theory(rng)
            probes = probe_formulas(desc)
            for f in probes[:6]:
                for g in probes[:6]:
                    if entails(desc.axioms + (f,), g):
                        assert set(desc.supporters(f)) <= set(desc.supporters(g))
                        assert set(desc.supporters(Neg(g))) <= set(
                            desc.supporters(Neg(f))
                        )
